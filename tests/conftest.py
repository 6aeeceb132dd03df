from hypothesis import settings

# Property tests set their own example counts; none has a per-example deadline.
settings.register_profile("scrubsim", deadline=None)
settings.load_profile("scrubsim")
