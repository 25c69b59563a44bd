"""The README and package-docstring snippets must keep working."""


def test_package_docstring_quickstart():
    from repro.core import RBFTConfig
    from repro.experiments import deploy

    deployment = deploy("rbft", RBFTConfig(f=1), n_clients=3)
    deployment.clients[0].send_request()
    deployment.sim.run(until=0.5)
    assert deployment.clients[0].completed == 1


def test_readme_promotion_flag():
    from repro.core import RBFTConfig

    config = RBFTConfig(promote_best_backup=True)
    assert config.promote_best_backup


def test_readme_cli_entrypoints_exist():
    from repro.experiments import FIGURES

    for name in ("table1", "fig1", "fig7", "fig12"):
        assert name in FIGURES


def test_version_exposed():
    import repro

    assert repro.__version__
