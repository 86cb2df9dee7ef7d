"""Regenerate the golden chase/containment corpus.

Run from the repository root after an *intentional* semantic change::

    PYTHONPATH=src python tests/golden/regenerate.py

The corpus pins the paper's worked examples — the Figure 1 infinite
chases and the intro example's Theorem 2 containment (IND-only and
key-based) — as serialized chase results and containment certificates.
``tests/test_golden_corpus.py`` replays them against both chase engines,
so any engine change that silently drifts from these results fails CI.

Only commit regenerated files together with the engine change that
justifies them; the diff *is* the review surface.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import Solver, SolverConfig
from repro.chase.engine import ChaseConfig, ChaseVariant, build_engine
from repro.containment.serialization import (
    certificate_to_dict,
    chase_result_to_dict,
    containment_result_to_dict,
)
from repro.workloads.paper_examples import figure1_example, intro_example, intro_example_key_based

GOLDEN_DIR = Path(__file__).resolve().parent

#: (file name, builder) — every entry one JSON document.
def _chase_documents():
    figure1 = figure1_example()
    intro_kb = intro_example_key_based()
    cases = (
        ("figure1_rchase_level4.json", figure1.query, figure1.dependencies,
         ChaseVariant.RESTRICTED, 4),
        ("figure1_ochase_level3.json", figure1.query, figure1.dependencies,
         ChaseVariant.OBLIVIOUS, 3),
        ("intro_key_based_rchase.json", intro_kb.q1, intro_kb.dependencies,
         ChaseVariant.RESTRICTED, 3),
    )
    for name, query, sigma, variant, level in cases:
        config = ChaseConfig(variant=variant, max_level=level, engine="columnar")
        result = build_engine(query, sigma, config).run()
        yield name, chase_result_to_dict(result, include_trace=True)


def _containment_documents():
    intro = intro_example()
    intro_kb = intro_example_key_based()
    cases = (
        # Theorem 2(i): the IND-only intro example, Q2 ⊆ Q1 only under Σ.
        ("intro_certificate.json", intro.q2, intro.q1, intro.dependencies),
        # Theorem 2(ii): the same question over the key-based upgrade.
        ("intro_key_based_certificate.json", intro_kb.q2, intro_kb.q1,
         intro_kb.dependencies),
    )
    for name, query, query_prime, sigma in cases:
        solver = Solver(SolverConfig(chase_engine="columnar", with_certificate=True))
        result = solver.is_contained(query, query_prime, sigma)
        assert result.holds and result.certificate is not None, name
        assert result.certificate.verify(), name
        document = containment_result_to_dict(result)
        document["certificate"] = certificate_to_dict(result.certificate)
        yield name, document


def main() -> None:
    for name, document in list(_chase_documents()) + list(_containment_documents()):
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
