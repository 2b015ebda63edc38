"""Time tailsim's set-up in a fresh process.

Usage: python3 setup_probe.py SRC_DIR CONFIG_FILE {scenario,none}

Prints the seconds from just before ``import tailsim.cli`` until the
workload's Config is built and validated (``load_config`` runs every
validation ``tailsim run`` does) and, for ``scenario``, its Scenario is
made: everything before the first physics step.
"""

import sys
import time


def main() -> None:
    src, config_path, kind = sys.argv[1:4]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import tailsim.cli  # noqa: F401 - the user's entry point is part of set-up
    from tailsim import config, scenarios

    cfg = config.load_config(config_path)
    if kind == "scenario":
        scenarios.make_scenario(cfg)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
