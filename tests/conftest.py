from hypothesis import settings

# Fixed examples and no per-example deadline: Tier-1 stays deterministic and
# does not flake on a loaded machine.
settings.register_profile("hfq", derandomize=True, deadline=None, database=None)
settings.load_profile("hfq")
