from hypothesis import settings

# Property tests set their own example counts; none has a per-example deadline.
# Examples are drawn from a fixed seed per test, so every run checks the same cases.
settings.register_profile("scrubsim", deadline=None, derandomize=True)
settings.load_profile("scrubsim")
