"""End-to-end benchmark of the simulator: whole ``run_scenario`` cells."""
