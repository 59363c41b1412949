"""Loader for the shipped program corpus."""

from __future__ import annotations

from pathlib import Path

from dynthreads.lang import Comp, desugar, parse_program

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"

# a program outside the corpus: the root waits for 0.1, which waits for its
# child 0.1.1, so the observed s1 < s2 holds only in the closure of the waits
NESTED_WAIT = (
    "let y = fork() in case y of { inj1 a => wait(a); printstop[s2]() "
    "| inj2 u => let z = fork() in case z of "
    "{ inj1 b => wait(b); printstop[s3]() | inj2 v => printstop[s1]() } }"
)


def corpus_names() -> list[str]:
    return sorted(p.stem for p in PROGRAMS_DIR.glob("*.prog"))


def load_surface(name: str) -> Comp:
    text = (PROGRAMS_DIR / f"{name}.prog").read_text()
    world, comp = parse_program(text)
    assert not world, f"{name}: corpus programs live in the empty world"
    return comp


def load_core(name: str) -> Comp:
    return desugar(load_surface(name))
