from hypothesis import settings

# derandomised: every run draws the same examples, so tier-1 stays
# reproducible; no example database is written
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=30)
settings.load_profile("tier1")
