"""Command-line surface tying the modules together.

Subcommands mirror the library: ``indicators``, ``weight``,
``factorizations``, ``classify``, ``equations``, ``series``,
``count-points``, and ``verify``.  Diagram and filling arguments accept
the text forms ("2,2" for column heights, "0 2 / 2 4" for a filling) or
``@file.json`` with the JSON forms.  ``--format json`` switches every
subcommand to machine-readable output; errors are emitted as
``{code, message, offending_input}`` on stderr with exit code 1 for bad
input and 2 for an exhausted cap or budget (``verify`` also exits 2
when a corpus row fails).  Output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceeded, DomainError, read_json, text_int


def _int_option(text: str) -> int:
    try:
        return text_int(text, "", text)
    except DomainError:  # argparse reports a ValueError as it reports one from int()
        raise ValueError(text) from None


class _Parser(argparse.ArgumentParser):
    """argparse surface whose usage errors become domain errors."""

    def error(self, message):
        raise DomainError("unsupported-option", message)


def _arg(cls, raw: str):
    """A ``cls`` (YoungDiagram or RPP) from its text form or from @file.json."""
    obj = read_json(raw[1:], raw[1:], raw) if raw.startswith("@") else raw
    return cls.from_text(obj) if isinstance(obj, str) else cls.from_json_obj(obj)


def _emit(args, json_obj, text_lines) -> None:
    """Print the form ``--format`` asks for; each argument builds its form, so only that one is built.

    The whole text is rendered before any of it is written, so an integer past
    the interpreter's int-to-text limit refuses the run (exit 2) instead of
    cutting its output short.
    """
    as_json = args.format == "json"
    obj = json_obj() if as_json else None
    try:
        text = json.dumps(obj, indent=2, sort_keys=True) if as_json else "\n".join(text_lines())
    except ValueError:
        raise CapExceeded("cap-exceeded", "the answer holds an integer too long to print", None) from None
    print(text)


# -- subcommands ---------------------------------------------------------------
# Each handler imports the modules it runs, so a subcommand loads only its layers.


def _cmd_indicators(args) -> int:
    from .diagram import YoungDiagram
    from .rpp import indicators

    diagram = _arg(YoungDiagram, args.diagram)
    inds = indicators(diagram)

    def as_json():
        return {
            "cols": list(diagram.cols),
            "count": len(inds),
            "indicators": [{"rows": ind.rows(), "text": ind.to_text()} for ind in inds],
        }

    def as_text():
        yield f"{len(inds)} indicators on {diagram.to_text()}"
        for k, ind in enumerate(inds):
            yield f"{k + 1}: {ind.to_text()}"

    _emit(args, as_json, as_text)
    return 0


def _cmd_weight(args) -> int:
    from .rpp import RPP

    n = _arg(RPP, args.rpp)
    weight = n.weight()
    _emit(args, lambda: {**n.to_json_obj(), "weight": weight}, lambda: [str(weight)])
    return 0


def _cmd_factorizations(args) -> int:
    from .rpp import RPP, all_factorizations, named_indices

    n = _arg(RPP, args.rpp)
    facts = all_factorizations(n)
    weight = n.weight()
    standard_index, complete_index = named_indices(n, facts)

    def as_json():
        return {
            "weight": weight,
            "count": len(facts),
            "standard_index": standard_index,
            "complete_index": complete_index,
            "factorizations": [f.to_json_obj() for f in facts],
        }

    def as_text():
        yield f"{len(facts)} factorizations of weight {weight}"
        for k, f in enumerate(facts):
            marks = "".join(
                [" (standard)" if k == standard_index else "", " (complete)" if k == complete_index else ""]
            )
            yield f"{k + 1}: {f.to_text()}{marks}"

    _emit(args, as_json, as_text)
    return 0


def _cmd_classify(args) -> int:
    from .components import classify, witness_texts
    from .rpp import RPP, indicators

    n = _arg(RPP, args.rpp)
    reports = classify(n)

    def as_text():
        inds = indicators(n.diagram)
        yield f"{len(reports)} components, {sum(not r.smooth for r in reports)} singular"
        for k, report in enumerate(reports):
            flags = "smooth" if report.smooth else "singular"
            if not report.smooth:
                flags += ", bijective on points" if report.bijective_on_points else ", not bijective"
            line = f"T{k + 1}: dim {report.dimension}, {flags} — {report.factorization.to_text()}"
            if report.relation_witness:
                witness = witness_texts(inds, report.relation_witness)
                terms = " ".join(f"{'+' if c > 0 else '-'}{abs(c)}*[{t}]" for t, c in witness.items())
                line += f" ; witness {terms}"
            yield line

    _emit(args, lambda: [r.to_json_obj() for r in reports], as_text)
    return 0


def _cmd_equations(args) -> int:
    from .equations import tangent_embedding, type_i_ideal, type_ii_ideal
    from .rpp import RPP

    n = _arg(RPP, args.rpp)
    if args.type == "I" and args.minimal_border:
        raise DomainError("unsupported-option", "--minimal-border applies to type II only", "--minimal-border")
    ideal = type_i_ideal(n) if args.type == "I" else type_ii_ideal(n, minimal_border=args.minimal_border)
    printed = ideal
    if args.tangent:
        dim, printed = tangent_embedding(ideal)

    def as_json():
        if not args.tangent:
            return ideal.to_json_obj()
        return {
            "presentation": ideal.to_json_obj(),
            "tangent_dim": dim,
            "reduced": printed.to_json_obj(),
        }

    _emit(args, as_json, lambda: [str(g) for g in printed.generators] or ["(no generators)"])
    return 0


def _cmd_series(args) -> int:
    from .diagram import YoungDiagram
    from .series import euler_series, format_coefficient, motivic_series

    diagram = _arg(YoungDiagram, args.diagram)
    if (args.curve is None) == (args.euler is None):
        raise DomainError(
            "unsupported-option", "choose exactly one of --curve and --euler", None
        )
    if args.curve is not None:
        if args.single_variable:
            raise DomainError(
                "unsupported-option", "--single-variable requires --euler", "--single-variable"
            )
        series = motivic_series(diagram, args.curve, args.max_size)
    else:
        series = euler_series(
            diagram, args.euler, args.max_size, single_variable=args.single_variable
        )

    def as_text():
        for exp, c in series.sorted_items():
            key = exp[0] if series.single_variable else list(exp)
            yield f"{key}: {format_coefficient(c)}"

    _emit(args, series.to_json_obj, as_text)
    return 0


def _cmd_count_points(args) -> int:
    from .pointcount import count_points
    from .rpp import RPP
    from .series import evaluate_motive, motivic_series

    n = _arg(RPP, args.rpp)
    count = count_points(n, args.p)
    coefficient = motivic_series(n.diagram, "A1", n.size).coefficient(n.values)
    motive = evaluate_motive(coefficient, args.p)
    _emit(
        args,
        lambda: {
            "n": n.to_json_obj(),
            "p": args.p,
            "count": count,
            "motive_at_p": motive,
            "match": count == motive,
        },
        lambda: [f"count {count}", f"motive_at_p {motive}", f"match {str(count == motive).lower()}"],
    )
    return 0


def _cmd_verify(args) -> int:
    from .verify import load_corpus, run_corpus

    corpus = load_corpus(args.corpus)
    results = run_corpus(corpus)
    n_pass = sum(ok for _, ok, _ in results)

    def as_json():
        return {
            "rows": [{"name": name, "passed": ok, "detail": detail} for name, ok, detail in results],
            "passed": n_pass,
            "failed": len(results) - n_pass,
        }

    def as_text():
        for name, ok, detail in results:
            yield f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f" - {detail}")
        yield f"{n_pass}/{len(results)} rows passed"

    _emit(args, as_json, as_text)
    return 0 if n_pass == len(results) else 2


# -- wiring ---------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rpphilb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.register("type", int, _int_option)  # type=int reads by text_int, and a refusal still names int
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)
        return p

    p = add("indicators", _cmd_indicators, "list the indicator fillings of a diagram")
    p.add_argument("diagram", help='column heights, e.g. "2,2", or @file.json')

    p = add("weight", _cmd_weight, "weight of a filling")
    p.add_argument("rpp", help='row-major filling, e.g. "0 2 / 2 4", or @file.json')

    p = add("factorizations", _cmd_factorizations, "all factorisations into indicators")
    p.add_argument("rpp")

    p = add("classify", _cmd_classify, "per-component smooth/singular report")
    p.add_argument("rpp")

    p = add("equations", _cmd_equations, "local defining equations at the origin chart")
    p.add_argument("rpp")
    p.add_argument("--type", choices=("I", "II"), required=True)
    p.add_argument("--tangent", action="store_true")
    p.add_argument("--minimal-border", action="store_true", dest="minimal_border")

    p = add("series", _cmd_series, "truncated generating series over the boxes")
    p.add_argument("diagram")
    p.add_argument("--curve", choices=("A1", "P1"))
    p.add_argument("--euler", type=int, metavar="CHI")
    p.add_argument("--max-size", type=int, default=6, dest="max_size")
    p.add_argument("--single-variable", action="store_true", dest="single_variable")

    p = add("count-points", _cmd_count_points, "brute-force point count over a prime field")
    p.add_argument("rpp")
    p.add_argument("--p", type=int, required=True)

    p = add("verify", _cmd_verify, "replay the frozen-expectation corpus")
    p.add_argument("corpus", nargs="?", default=None, help="corpus JSON path (default: bundled)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except DomainError as exc:
        print(json.dumps(exc.as_json(), sort_keys=True), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
