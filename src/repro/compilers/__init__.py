"""Compiler families, versions, and the compilation driver."""

from .config import FULL_PIPELINE, PipelineConfig
from .driver import CompilationResult, CompilerSpec, compile_minic
from .pipeline import PassPipelineError, run_pipeline
from .vendors import FAMILIES, GCCLIKE, LEVELS, LLVMLIKE, O0, O1, O2, O3, OS
from .versions import Commit, commit_at, config_at, history, latest

__all__ = [
    "Commit",
    "CompilationResult",
    "CompilerSpec",
    "FAMILIES",
    "FULL_PIPELINE",
    "GCCLIKE",
    "LEVELS",
    "LLVMLIKE",
    "O0",
    "O1",
    "O2",
    "O3",
    "OS",
    "PassPipelineError",
    "PipelineConfig",
    "commit_at",
    "compile_minic",
    "config_at",
    "history",
    "latest",
    "run_pipeline",
]
