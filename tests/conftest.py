from hypothesis import settings

# One profile for every property test: no per-example deadline (a slow shared
# host must not fail a correct example) and a fixed example sequence, so a
# failure reproduces on the next run.
settings.register_profile("idtrack", deadline=None, derandomize=True)
settings.load_profile("idtrack")
