"""Tests for the application registry and top-level package surface."""

import pytest

from repro.apps import make_app_factory, registered_apps
from repro.apps.base import CharmApplication
from repro.errors import ReproError
from repro.mpioperator import AppSpec, CharmJob, CharmJobSpec


def job_with_app(name, params=None):
    spec = CharmJobSpec(
        min_replicas=2, max_replicas=8,
        app=AppSpec(name=name, params=dict(params or {})),
    )
    return CharmJob("j", spec)


class TestRegistry:
    def test_builtin_apps_registered(self):
        assert {"jacobi2d", "leanmd", "modeled"} <= set(registered_apps())

    def test_factory_builds_jacobi(self):
        factory = make_app_factory()
        app = factory(job_with_app("jacobi2d", {"n": 32, "blocks": 4, "steps": 10}))
        assert app.name == "jacobi2d-32"
        assert app.total_steps == 10

    def test_factory_builds_leanmd(self):
        factory = make_app_factory()
        app = factory(job_with_app("leanmd", {"cells": [2, 2, 2], "steps": 5}))
        assert app.total_steps == 5
        assert app.config.cells == (2, 2, 2)

    def test_factory_builds_modeled_from_size_class(self):
        factory = make_app_factory()
        app = factory(job_with_app("modeled", {"size_class": "small"}))
        assert app.total_steps == 40_000

    def test_unknown_app_rejected(self):
        factory = make_app_factory()
        with pytest.raises(ReproError, match="unknown app"):
            factory(job_with_app("nope"))

    def test_factory_overrides(self):
        class Custom(CharmApplication):
            def setup(self, rts):
                pass

            def run_block(self, rts, start, n):
                yield 0.001 * n

        factory = make_app_factory(custom=lambda job: Custom("c", total_steps=5))
        app = factory(job_with_app("custom"))
        assert app.name == "c"


class TestPackageSurface:
    def test_top_level_imports(self):
        import repro

        assert repro.__version__ == "1.0.0"
        assert issubclass(repro.ReproError, Exception)

    def test_scheduling_exports(self):
        from repro.scheduling import Aging, PreemptJob, ResumeJob
        from repro.scheduling.controller import ElasticSchedulerController

        assert Aging is not None
        assert PreemptJob is not None and ResumeJob is not None
        assert ElasticSchedulerController is not None

    def test_unknown_scheduling_attribute(self):
        import repro.scheduling as s

        with pytest.raises(AttributeError):
            _ = s.NoSuchThing

    def test_all_public_modules_importable(self):
        import importlib

        for module in (
            "repro.sim", "repro.k8s", "repro.charm", "repro.mpioperator",
            "repro.scheduling", "repro.scheduling.extensions",
            "repro.charm.faulttolerance", "repro.perfmodel", "repro.apps",
            "repro.apps.evolving", "repro.schedsim", "repro.experiments",
            "repro.cli",
        ):
            assert importlib.import_module(module) is not None
