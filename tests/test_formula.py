import pytest

from stablemodels import (
    BOT,
    TOP,
    And,
    AtomRef,
    FormulaParseError,
    Implies,
    Or,
    as_rule,
    atoms,
    classify_occurrences,
    is_nondisjunctive_rule,
    loop_formula,
    parse_formula,
    parse_theory,
    print_formula,
    print_theory,
    rules_of,
    spos,
    theory_atoms,
)
from stablemodels.formula import (
    _AND,
    _ATOM,
    _BOT,
    _IMPLIES,
    _OR,
    _compile,
    conj,
    neg,
)
from conftest import compile_scan

p, q, r, s = AtomRef("p"), AtomRef("q"), AtomRef("r"), AtomRef("s")


class TestParse:
    def test_implication(self):
        assert parse_formula("p -> q") == Implies(p, q)

    def test_negation_desugars(self):
        assert parse_formula("not r") == Implies(r, BOT)
        assert parse_formula("-r") == Implies(r, BOT)
        assert parse_formula("!r") == Implies(r, BOT)

    def test_biconditional_desugars(self):
        assert parse_formula("p <-> q") == And(Implies(p, q), Implies(q, p))

    def test_biconditional_left_assoc(self):
        ab = And(Implies(p, q), Implies(q, p))
        assert parse_formula("p <-> q <-> r") == And(
            Implies(ab, r), Implies(r, ab)
        )

    def test_implication_right_assoc(self):
        assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))

    def test_precedence(self):
        assert parse_formula("p | q & r") == Or(p, And(q, r))
        assert parse_formula("not p & q") == And(Implies(p, BOT), q)
        assert parse_formula("p & q -> r") == Implies(And(p, q), r)

    def test_bottom_spellings(self):
        assert parse_formula("bot") == BOT
        assert parse_formula("false") == BOT

    def test_parens(self):
        assert parse_formula("(p -> q) -> r") == Implies(Implies(p, q), r)

    def test_theory_order_and_separators(self, p1):
        assert len(p1) == 2
        assert p1[0] == Implies(p, q)
        assert parse_theory("p -> q\nq -> r") == (
            Implies(p, q),
            Implies(q, r),
        )

    def test_empty_and_comment_only(self):
        assert parse_theory("") == ()
        assert parse_theory("% comment only") == ()

    def test_trailing_separators(self):
        assert parse_theory("p.\n\n.") == (p,)

    def test_error_carries_position(self):
        with pytest.raises(FormulaParseError) as info:
            parse_theory("p -> ")
        assert info.value.line == 1
        assert "expected" in str(info.value)

    def test_error_on_junk(self):
        with pytest.raises(FormulaParseError):
            parse_formula("p @ q")
        with pytest.raises(FormulaParseError):
            parse_formula("p q")

    def test_uppercase_initial_rejected(self):
        with pytest.raises(FormulaParseError):
            parse_formula("Pxyz")


class TestPrint:
    def test_resugars_negation(self):
        assert print_formula(Implies(p, BOT)) == "not p"

    def test_parenthesizes_by_precedence(self):
        assert print_formula(And(p, Or(q, r))) == "p & (q | r)"
        assert print_formula(Or(And(p, q), r)) == "p & q | r"

    def test_right_assoc_implication(self):
        assert print_formula(Implies(p, Implies(q, r))) == "p -> q -> r"
        assert print_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"

    @pytest.mark.parametrize(
        "text",
        [
            "p",
            "bot",
            "not p",
            "not (p & q)",
            "p & q & r",
            "p & (q & r)",
            "p | q | r -> s",
            "(p -> q) -> r",
            "not not p",
            "p <-> q",
            "(p -> bot) -> bot",
        ],
    )
    def test_round_trip(self, text):
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f

    def test_theory_round_trip(self, p1):
        assert parse_theory(print_theory(p1)) == p1


class TestAtoms:
    def test_p1(self, p1):
        assert theory_atoms(p1) == {"p", "q", "r"}

    def test_empty(self):
        assert theory_atoms(()) == frozenset()

    def test_bottom_has_no_atoms(self):
        assert atoms(parse_formula("bot -> bot")) == frozenset()


class TestOccurrences:
    def test_conjunction_of_literals(self):
        f = parse_formula("b1 & not b2")
        occ = dict(classify_occurrences(f))
        assert occ["b1"].antecedent_count == 0
        assert not occ["b1"].negated
        assert occ["b2"].antecedent_count == 1
        assert occ["b2"].negated

    def test_nested_implications(self, nested):
        occ = dict(classify_occurrences(nested))
        # Counts are relative to the whole formula: every enclosing
        # implication whose antecedent contains the occurrence counts.
        assert occ["p"].antecedent_count == 3
        assert occ["q"].antecedent_count == 2
        assert occ["r"].antecedent_count == 1
        assert occ["s"].antecedent_count == 0
        assert not any(ctx.negated for _, ctx in classify_occurrences(nested))

    def test_single_atom(self):
        [(name, ctx)] = classify_occurrences(p)
        assert name == "p"
        assert ctx.antecedent_count == 0
        assert not ctx.negated

    def test_flags_are_consistent(self, p3):
        for _, ctx in classify_occurrences(p3):
            if ctx.strictly_positive:
                assert ctx.positive and ctx.nonnegated


class TestSpos:
    def test_literal_conjunction(self):
        assert spos(parse_formula("b1 & b2 & not b3")) == {"b1", "b2"}

    def test_nested(self, nested):
        assert spos(nested) == {"s"}

    def test_bottom(self):
        assert spos(BOT) == frozenset()

    def test_subset_of_atoms(self, p3):
        assert spos(p3) <= atoms(p3)


class TestRulesOf:
    def test_p3_has_two_rules(self, p3):
        rules = rules_of(p3)
        assert len(rules) == 2
        assert rules[0].body == p
        assert rules[0].head == q
        assert rules[1].head == p

    def test_nested_consequent_rules(self):
        rules = rules_of(parse_formula("p -> (q -> r)"))
        assert [(ro.body, ro.head) for ro in rules] == [
            (p, Implies(q, r)),
            (q, r),
        ]

    def test_atom_has_no_rules(self):
        assert rules_of(p) == []


class TestNondisjunctive:
    def test_rule(self):
        assert is_nondisjunctive_rule(parse_formula("q & not r -> p"))

    def test_disjunction_is_not(self):
        assert not is_nondisjunctive_rule(parse_formula("p | q"))

    def test_fact_normalizes_to_tautological_body(self):
        assert is_nondisjunctive_rule(p)
        assert as_rule(p) == (TOP, "p")

    def test_nested_head_is_not(self):
        assert not is_nondisjunctive_rule(parse_formula("p -> q -> r"))
        assert as_rule(parse_formula("p -> q -> r")) is None


class TestFolds:
    def test_empty(self):
        assert conj([]) is TOP

    def test_left_associated(self):
        assert conj(iter([p, q, r])) == And(And(p, q), r)
        assert conj([p]) is p


class TestCompile:
    # The op numbering every module indexes: a postorder over the
    # conjunction of the members, one op per distinct node object.
    def test_empty_theory_is_top(self):
        # bot -> bot, with one Bottom object on both sides.
        ops = [(_BOT, 0, 0), (_IMPLIES, 0, 0)]
        assert _compile(()) == compile_scan(()) == (ops, set())

    def test_member_given_twice_gets_one_op(self):
        x = Or(p, neg(q))
        ops = [
            (_ATOM, "p", 0), (_ATOM, "q", 0), (_BOT, 0, 0), (_IMPLIES, 1, 2),
            (_OR, 0, 3), (_AND, 4, 4),
        ]
        assert _compile((x, x)) == compile_scan((x, x)) == (ops, {"p", "q"})

    def test_loop_formula_shares_its_support(self):
        # (p -> not NES) & (q -> not NES), with NES = (bot -> bot) & (q -> p)
        # and not NES one object: op 7, compiled once.
        lf = loop_formula(Implies(q, p), {"p", "q"})
        ops = [
            (_ATOM, "p", 0), (_BOT, 0, 0), (_IMPLIES, 1, 1), (_ATOM, "q", 0),
            (_ATOM, "p", 0), (_IMPLIES, 3, 4), (_AND, 2, 5), (_IMPLIES, 6, 1),
            (_IMPLIES, 0, 7), (_ATOM, "q", 0), (_IMPLIES, 9, 7),
            (_AND, 8, 10),
        ]
        assert _compile((lf,)) == compile_scan((lf,)) == (ops, {"p", "q"})
