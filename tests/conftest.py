import importlib.util
import os
import sys

import pytest

from threadlint.classmodel import ThreadSafeTypeAllowlist, build_class_model
from threadlint.frontend import SourceFile, parse_compilation_unit

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, name)


def corpus_source(name: str) -> SourceFile:
    path = corpus_path(name)
    with open(path, "r", encoding="utf-8") as fh:
        return SourceFile(path, fh.read())


def parse_corpus(name: str):
    return parse_compilation_unit(corpus_source(name))


def model_for(name: str, class_index: int = 0, allowlist: ThreadSafeTypeAllowlist = None, **kw):
    ast = parse_corpus(name)
    decl = ast.classes[class_index]
    if allowlist is None:
        allowlist = ThreadSafeTypeAllowlist()
    return build_class_model(decl, allowlist=allowlist, **kw)


def model_from_source(src: str, path: str = "<test>.java", class_index: int = 0, **kw):
    ast = parse_compilation_unit(SourceFile(path, src))
    return build_class_model(ast.classes[class_index], **kw)


def benchmark_module(name: str):
    """``perfbench/<name>.py``, loaded from its file as ``perfbench_<name>``."""
    path = os.path.join(os.path.dirname(os.path.dirname(CORPUS_DIR)), "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def benchmark_workloads():
    """The benchmark's input generator, loaded from its file."""
    return benchmark_module("workloads")


def full_size_sources() -> list[str]:
    """The texts of the corpus, the oracle probes and the three full-size
    workloads at seed 1."""
    probes = os.path.join(os.path.dirname(CORPUS_DIR), "oracle_probes")
    texts = [corpus_source(n).content for n in sorted(os.listdir(CORPUS_DIR)) if n.endswith(".java")]
    for name in sorted(os.listdir(probes)):
        with open(os.path.join(probes, name), encoding="utf-8") as fh:
            texts.append(fh.read())
    workloads = benchmark_workloads()
    for workload in workloads.WORKLOADS:
        texts.extend(f.text for f in workloads.generate(workload, 1, "full", CORPUS_DIR))
    return texts


def line_of(text: str, needle: str) -> int:
    """1-based line number of the first line containing ``needle``."""
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not found")


@pytest.fixture
def corpus_names():
    return sorted(n for n in os.listdir(CORPUS_DIR) if n.endswith(".java"))
