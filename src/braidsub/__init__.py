"""Subgroup presentation toolkit for virtual and welded braid commutators.

The package rewrites kernel words through a Schreier transversal, derives
and simplifies relator catalogs for the derived subgroups, and abelianizes
truncated presentations exactly.
"""

from .abelianize import (
    abelian_invariants,
    abelianization,
    check_perfect,
    relation_matrix,
    smith_normal_form,
    snf,
    stabilization_profile,
)
from .cosets import closed_form, expansion, phi, representative, schreier_generator
from .presets import (
    Presentation,
    ambient_presentation,
    derived_presentation,
    generator_count,
    instantiate,
    reduced_presentation,
)
from .rewriting import (
    assemble,
    assemble_derived_presentation,
    canon_key,
    compare_words,
    derive_relation,
    expand_word,
    normalize,
    rewrite,
    verify_lemma,
)
from .tietze import eliminate_family, run_script, solve_for
from .words import Word, parse_template, parse_word, print_template, print_word

__all__ = [
    "Word",
    "parse_word",
    "print_word",
    "parse_template",
    "print_template",
    "phi",
    "representative",
    "schreier_generator",
    "expansion",
    "closed_form",
    "rewrite",
    "normalize",
    "expand_word",
    "derive_relation",
    "compare_words",
    "canon_key",
    "verify_lemma",
    "assemble",
    "assemble_derived_presentation",
    "Presentation",
    "ambient_presentation",
    "derived_presentation",
    "reduced_presentation",
    "instantiate",
    "generator_count",
    "solve_for",
    "eliminate_family",
    "run_script",
    "snf",
    "smith_normal_form",
    "relation_matrix",
    "abelianization",
    "abelian_invariants",
    "stabilization_profile",
    "check_perfect",
]
