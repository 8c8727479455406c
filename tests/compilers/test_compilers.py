import pytest

from repro.compilers import (
    CompilerSpec,
    PipelineConfig,
    compile_minic,
    config_at,
    history,
    latest,
)
from repro.compilers.config import config_fingerprint_of
from repro.compilers.vendors import FAMILIES, LEVELS, base_config
from repro.compilers.versions import commit_at


def test_spec_validation():
    with pytest.raises(ValueError):
        CompilerSpec("tcc", "O2")
    with pytest.raises(ValueError):
        CompilerSpec("gcclike", "O9")
    spec = CompilerSpec("gcclike", "O2")
    assert str(spec).startswith("gcclike-O2@")


def test_every_family_level_config_resolves():
    for family in FAMILIES:
        for level in LEVELS:
            cfg = config_at(family, level)
            assert cfg.passes, (family, level)
            for name in cfg.passes:
                from repro.passes.registry import PASS_REGISTRY

                assert name in PASS_REGISTRY, name


def test_versions_range_checked():
    with pytest.raises(ValueError):
        config_at("gcclike", "O2", latest("gcclike") + 1)
    with pytest.raises(ValueError):
        config_at("gcclike", "O2", -1)


def test_histories_are_diverse():
    for family in FAMILIES:
        commits = history(family)
        assert len(commits) >= 20
        components = {c.component for c in commits}
        assert len(components) >= 9, family
        behavioural = [c for c in commits if c.is_behavioural]
        assert len(behavioural) >= 10, family
        # shas unique
        assert len({c.sha for c in commits}) == len(commits)


def test_commit_at_matches_history():
    commits = history("llvmlike")
    assert commit_at("llvmlike", 1) is commits[0]
    assert commit_at("llvmlike", len(commits)) is commits[-1]


def test_commits_change_configs_monotonically_applied():
    # Version k and k+1 differ exactly when commit k+1 is behavioural
    # at some level.
    family = "gcclike"
    for version in range(latest(family)):
        commit = commit_at(family, version + 1)
        changed = False
        for level in LEVELS:
            before = config_at(family, level, version)
            after = config_at(family, level, version + 1)
            if before != after:
                changed = True
        assert changed == commit.is_behavioural or not commit.is_behavioural


def test_family_asymmetries_match_design():
    gcc = config_at("gcclike", "O3")
    llvm = config_at("llvmlike", "O3")
    assert gcc.addr_cmp == "all" and llvm.addr_cmp == "zero-index"
    assert gcc.global_fold_mode == "readonly"
    assert llvm.global_fold_mode == "stored-init"
    assert not gcc.fold_uniform_const_arrays
    assert llvm.fold_uniform_const_arrays
    assert gcc.vectorize and not llvm.vectorize
    assert llvm.unswitch and not gcc.unswitch
    assert not gcc.dse_dead_at_exit and llvm.dse_dead_at_exit


def test_o0_is_family_independent():
    assert config_at("gcclike", "O0") == config_at("llvmlike", "O0")


def test_describe_diff_lists_changes():
    a = PipelineConfig()
    b = a.with_(vrp=not a.vrp, inline_budget=3)
    diff = a.describe_diff(b)
    assert any("vrp" in line for line in diff)
    assert any("inline_budget" in line for line in diff)


def test_config_fingerprint_of_golden_values():
    """Pinned: these key the artifact store's compile memo, so stores
    filled by earlier releases keep hitting."""
    gcc_o2 = config_at("gcclike", "O2")
    llvm_o3 = config_at("llvmlike", "O3")
    assert config_fingerprint_of(gcc_o2) == "452bc3109211d516"
    assert config_fingerprint_of(llvm_o3) == "bba335e03680dbce"


def test_compile_returns_asm_and_markers():
    result = compile_minic(
        """
        void DCEMarkerX(void);
        int main() {
          if (0) { DCEMarkerX(); }
          return 0;
        }
        """,
        CompilerSpec("gcclike", "O1"),
    )
    assert "main:" in result.asm
    assert result.alive_markers("DCEMarker") == frozenset()


def test_base_config_rejects_unknown_family():
    with pytest.raises(ValueError):
        base_config("sdcc", "O2")


def test_full_pipeline_constant_names_registered_passes():
    from repro.compilers import FULL_PIPELINE
    from repro.passes.registry import PASS_REGISTRY

    assert set(FULL_PIPELINE) <= set(PASS_REGISTRY)


def test_registry_lists_every_pass():
    from repro.passes.registry import available_passes

    names = available_passes()
    for expected in ("mem2reg", "sccp", "gvn", "memcp", "licm", "cprop",
                     "unroll", "unswitch", "vectorize", "vrp", "dse",
                     "adce", "inline", "globalopt", "jump-threading",
                     "instcombine", "simplify-cfg"):
        assert expected in names
