import copy
import importlib
import itertools
import pickle
import pkgutil

import pytest

import oracles
from braidalg import (
    Alphabet,
    FamilyReport,
    FreeGroupEndo,
    GroupRingElement,
    Permutation,
    RelationPreset,
    Token,
    WeldedWord,
    WordError,
    as_automorphism,
    braid_relations,
    equivariance_relations,
    mccool_relations,
    parse_word,
    infinitesimal_artin,
    oriented_artin,
    pure_braid_generator,
    words_equal_in_bp,
)
import braidalg
from braidalg.associator import AxiomResult, EquivalenceReport, ExtensionStep
from braidalg.invariants import (
    DeltaKernelReport,
    DistinguishReport,
    FiltrationReport,
    HilbertTable,
    SplittingCase,
    SplittingReport,
    random_welded_word,
)
from braidalg.reps import CheckOutcome
from braidalg.value import OrderedValue, Record, Value
from braidalg.words import a, s, sigma, word


class TestGeneratorAutomorphisms:
    def test_conjugating_generator(self):
        e = as_automorphism(word(2, a(1, 2)))
        assert e.images == ((-2, 1, 2), (2,))

    def test_strand_swap(self):
        e = as_automorphism(word(2, s(1)))
        assert e.images == ((2,), (1,))

    def test_braid_generator_is_a_then_s(self):
        e = as_automorphism(word(2, sigma(1)))
        assert e.images == ((2,), (-2, 1, 2))
        assert e.fixes_product_of_generators()

    def test_inverse_tokens(self):
        for t in (a(1, 2), sigma(1)):
            w = word(3, t, t.inverse())
            assert as_automorphism(w) == FreeGroupEndo.identity(3)

    def test_permutation_part(self):
        e = as_automorphism(word(3, sigma(1), sigma(2)))
        assert e.permutation_part() == Permutation.transposition(3, 1).compose(
            Permutation.transposition(3, 2)
        )


class TestEqualityOracle:
    def test_commuting_conjugations(self):
        assert words_equal_in_bp(word(3, a(1, 3), a(2, 3)), word(3, a(2, 3), a(1, 3)))

    def test_braid_relation(self):
        lhs = word(3, sigma(1), sigma(2), sigma(1))
        rhs = word(3, sigma(2), sigma(1), sigma(2))
        assert words_equal_in_bp(lhs, rhs)

    def test_opposite_conjugations_differ(self):
        assert not words_equal_in_bp(word(2, a(1, 2)), word(2, a(2, 1)))

    def test_strand_mismatch(self):
        with pytest.raises(WordError):
            words_equal_in_bp(word(2, a(1, 2)), word(3, a(1, 2)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_all_defining_relators_trivial(self, n):
        identity = FreeGroupEndo.identity(n)
        for name, relator in mccool_relations(n) + braid_relations(n):
            assert as_automorphism(relator) == identity, name

    @pytest.mark.parametrize("n", [3, 4])
    def test_equivariance_exhaustive(self, n):
        identity = FreeGroupEndo.identity(n)
        for name, relator in equivariance_relations(n):
            assert as_automorphism(relator) == identity, name

    @pytest.mark.parametrize("n", [3, 4])
    def test_braid_words_fix_generator_product(self, n, rng):
        for _ in range(25):
            letters = tuple(
                sigma(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))
            )
            assert as_automorphism(WeldedWord(n, letters)).fixes_product_of_generators()

    def test_welded_words_usually_move_the_product(self):
        assert not as_automorphism(word(3, a(1, 2))).fixes_product_of_generators()


class TestPureBraidGenerators:
    def test_two_strands(self):
        assert pure_braid_generator(1, 2, 2).text() == "sig1 sig1"

    def test_conjugated_form(self):
        assert pure_braid_generator(1, 3, 3).text() == "sig2 sig1 sig1 sig2^-1"

    def test_abelianized_permutation_trivial(self):
        for n in (3, 4):
            for j in range(1, n + 1):
                for i in range(j + 1, n + 1):
                    endo = as_automorphism(pure_braid_generator(j, i, n))
                    assert endo.permutation_part().is_identity()

    def test_index_order_enforced(self):
        with pytest.raises(WordError):
            pure_braid_generator(2, 2, 3)
        with pytest.raises(WordError):
            pure_braid_generator(3, 1, 3)


class TestWordGrammar:
    def test_powers_expand(self):
        w = parse_word("a12^3", 3)
        assert w.letters == (a(1, 2), a(1, 2), a(1, 2))
        w = parse_word("a12^-2", 3)
        assert w.letters == (a(1, 2, -1), a(1, 2, -1))

    def test_s_is_involution(self):
        assert parse_word("s1^-1", 3) == parse_word("s1", 3)

    def test_roundtrip(self, rng):
        w = parse_word("a12^-1 sig2 s1 a13 sig1^-1", 4)
        assert parse_word(w.text(), 4) == w

    def test_empty_word(self):
        assert parse_word("", 3) == WeldedWord(3, ())

    def test_bad_tokens(self):
        for text in ("b12", "a1", "a11", "sig0", "s3", "a12^x"):
            with pytest.raises(WordError):
                parse_word(text, 3)

    def test_s_and_sigma_take_no_second_label(self):
        for kind in ("s", "sigma"):
            with pytest.raises(WordError, match="bad token"):
                Token(kind, 1, 2)
        # A second label would print as s1 yet be another term than s1.
        s1 = GroupRingElement.from_word(WeldedWord(3, (Token("s", 1),)))
        with pytest.raises(WordError, match="bad token"):
            s1 - GroupRingElement.from_word(WeldedWord(3, (Token("s", 1, 2),)))

    def test_out_of_range(self):
        with pytest.raises(WordError):
            parse_word("a14", 3)
        with pytest.raises(WordError):
            parse_word("sig3", 3)

    def test_word_inverse(self):
        w = parse_word("a12 sig1 s1", 3)
        assert as_automorphism(w * w.inverse()) == FreeGroupEndo.identity(3)

    # (text, n, letters or the WordError message); the strand count is 3
    # unless given.
    TOKEN_TABLE = [
        ("a12", 3, [a(1, 2)]),
        ("a21^1", 3, [a(2, 1)]),
        ("a13^-1", 3, [a(1, 3, -1)]),
        ("a12^3", 3, [a(1, 2)] * 3),
        ("a32^-2", 3, [a(3, 2, -1)] * 2),
        ("a12^0", 3, []),
        ("a12^-0", 3, []),
        ("s1", 3, [s(1)]),
        ("s2^-1", 3, [s(2)]),
        ("s1^-3", 3, [s(1)] * 3),
        ("s1^0", 3, []),
        ("sig1", 3, [sigma(1)]),
        ("sig2^-1", 3, [sigma(2, -1)]),
        ("sig1^2", 3, [sigma(1)] * 2),
        ("sig2^-2", 3, [sigma(2, -1)] * 2),
        ("sig1^0", 3, []),
        ("", 3, []),
        ("b12", 3, "bad token 'b12'"),
        ("a12^x", 3, "bad token 'a12^x'"),
        ("a12^", 3, "bad token 'a12^'"),
        ("a123", 3, "bad token 'a123'"),
        ("S1", 3, "bad token 'S1'"),
        ("a12^+1", 3, "bad token 'a12^+1'"),
        ("s12", 3, "bad token 's12'"),
        ("sig12", 3, "bad token 'sig12'"),
        ("sig12^-1", 3, "bad token 'sig12^-1'"),
        ("a1", 3, "token 'a1' needs two strand labels"),
        ("a1^-1", 3, "token 'a1^-1' needs two strand labels"),
        ("a11", 3, "a(1,1) needs distinct positive labels"),
        ("a11^-1", 3, "a(1,1) needs distinct positive labels"),
        ("a11^0", 3, "a(1,1) needs distinct positive labels"),
        ("a01", 3, "a(0,1) needs distinct positive labels"),
        ("s0", 3, "s(0) needs a positive index"),
        ("s0^-1", 3, "s(0) needs a positive index"),
        ("sig0", 3, "sigma(0) needs a positive index"),
        ("sig0^-1", 3, "sigma(0) needs a positive index"),
        ("sig0^0", 3, "sigma(0) needs a positive index"),
        ("a14", 3, "token a14 out of range for n=3"),
        ("a14^-1", 3, "token a14^-1 out of range for n=3"),
        ("a14^0", 3, []),
        ("s3", 3, "token s3 out of range for n=3"),
        ("sig3^-1", 3, "token sig3^-1 out of range for n=3"),
        ("a14 sig3", 4, [a(1, 4), sigma(3)]),
        ("a12 b12", 3, "bad token 'b12'"),
        ("a11 b12", 3, "a(1,1) needs distinct positive labels"),
    ]

    @pytest.mark.parametrize("text, n, want", TOKEN_TABLE)
    def test_token_table(self, text, n, want):
        # Twice: a repeated text parses from the memo, and an error repeats.
        for _ in range(2):
            if isinstance(want, str):
                with pytest.raises(WordError) as err:
                    parse_word(text, n)
                assert str(err.value) == want
            else:
                assert parse_word(text, n) == WeldedWord(n, want)

    def test_one_token_per_distinct_letter(self, monkeypatch):
        from braidalg import words

        distinct = {a(1, 2), a(2, 1, -1), s(1), sigma(2), sigma(2, -1), sigma(1, -1)}
        words._parse_token.cache_clear()
        words._letter.cache_clear()
        built = []
        init = Token.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Token, "__init__", counting)
        spellings = ["a12", "a12^1", "a12^2", "a21^-1", "a21^-3", "s1", "s1^-1", "sig2", "sig2^-2", "sig1^-1"]
        text = " ".join(spellings * 40)
        w = parse_word(text, 3)
        assert len(w.letters) == 40 * 14
        assert set(w.letters) == distinct
        assert len(built) == len(distinct)
        built.clear()
        assert parse_word(text, 3) == w
        assert not built


class TestAsAutomorphism:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_equals_the_per_letter_composition(self, n, rng):
        # Only the images a letter moves are recomputed; the oracle composes
        # every image with every letter.
        for length in (0, 1, 2, 5, 12, 30):
            for _ in range(8):
                w = random_welded_word(rng, n, length)
                assert as_automorphism(w) == oracles.as_automorphism(w), w.text()


_FIELDS = {
    Permutation: ("images",),
    Token: ("kind", "i", "j", "power"),
    WeldedWord: ("n", "letters"),
    FreeGroupEndo: ("n", "images"),
    RelationPreset: ("kind", "n", "alphabet"),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in _FIELDS[type(value)])


def _subclasses(base) -> set:
    """Every class in braidalg that derives from base, once each module is imported."""
    for module in pkgutil.iter_modules(braidalg.__path__):
        importlib.import_module(f"braidalg.{module.name}")
    found, todo = set(), [base]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("braidalg.") and cls not in found:
                found.add(cls)
                todo.append(cls)
    return found


class TestValueTypes:
    """Permutations, tokens, words, endomorphisms and presets are immutable values."""

    def values(self):
        """Pairs of equal values built separately, and one unequal value of each type."""
        w = parse_word("a12 sig1^-1 s2", 3)
        return [
            (Permutation((2, 3, 1)), Permutation.from_one_line("231"), Permutation.identity(3)),
            (Token("a", 1, 2, -1), Token("a", 1, 2, -1), Token("a", 2, 1, -1)),
            (w, parse_word(w.text(), 3), w.inverse()),
            (as_automorphism(w), as_automorphism(parse_word(w.text(), 3)), FreeGroupEndo.identity(3)),
            # oriented_artin(n) is memoized: build the equal preset by hand.
            (
                oriented_artin(3),
                RelationPreset("oriented_artin", 3, Alphabet.oriented(3)),
                infinitesimal_artin(3),
            ),
        ]

    def test_equal_values_hash_equal_and_never_equal_their_field_tuple(self):
        for x, y, other in self.values():
            assert x is not y and x == y and not x != y and hash(x) == hash(y)
            assert x != other and len({x, y, other}) == 2
            assert x != _fields(x) and _fields(x) != x
            assert (x,) != (_fields(x),)

    def test_values_hash_as_their_field_tuple(self):
        for x, y, other in self.values():
            for value in (x, y, other):
                assert value._key == _fields(value) and hash(value) == hash(_fields(value))

    def test_a_word_hashes_its_letters_once(self, monkeypatch):
        w = parse_word("a12 sig1^-1 s2 a31", 3)
        want = hash(_fields(w))
        assert hash(w) == want
        calls = []
        token_hash = Token.__hash__
        monkeypatch.setattr(Token, "__hash__", lambda t: calls.append(t) or token_hash(t))
        for fresh in (parse_word(w.text(), 3), copy.copy(w), pickle.loads(pickle.dumps(w))):
            calls.clear()
            assert hash(fresh) == hash(fresh) == want
            assert calls == list(fresh.letters)

    def test_the_value_types_are_exactly_the_subclasses_of_the_base(self):
        assert _subclasses(Value) - {OrderedValue} == set(_FIELDS)
        assert set(OrderedValue.__subclasses__()) == {Permutation, Token}
        for cls, fields in _FIELDS.items():
            assert cls.__slots__ == fields

    def test_only_permutations_and_tokens_are_ordered(self):
        for x, y, other in self.values():
            if type(x) in (Permutation, Token):
                assert (x < other) != (other < x) and x <= y and x >= y
                continue
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(type(x), op) is getattr(object, op)
            with pytest.raises(TypeError):
                x < other
            with pytest.raises(TypeError):
                x <= y

    def test_lists_and_generators_give_the_values_tuples_give(self):
        for pi in (Permutation([2, 3, 1]), Permutation(i for i in (2, 3, 1))):
            assert pi.images == (2, 3, 1) and pi == Permutation((2, 3, 1))
            assert hash(pi) == hash(Permutation((2, 3, 1)))
        with pytest.raises(ValueError):
            Permutation(i for i in (1, 1))
        for w in (WeldedWord(2, [Token("s", 1)]), WeldedWord(2, (t for t in [s(1)]))):
            assert w.letters == (s(1),) and w == word(2, s(1)) and hash(w) == hash(word(2, s(1)))
        with pytest.raises(WordError):
            WeldedWord(2, [s(2)])
        identity = FreeGroupEndo.identity(2)
        for images in ([(1,), (2,)], [[1], [2]], (img for img in [[1], (2,)])):
            e = FreeGroupEndo(2, images)
            assert e.images == ((1,), (2,)) and e == identity and hash(e) == hash(identity)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for x, _, other in self.values():
            for name, value in zip(_FIELDS[type(x)], _fields(other)):
                with pytest.raises(AttributeError):
                    setattr(x, name, value)
                with pytest.raises(AttributeError):
                    delattr(x, name)
            assert _fields(x) != _fields(other)

    def test_copies_and_pickles_are_equal(self):
        for x, _, _ in self.values():
            assert copy.copy(x) == x and copy.deepcopy(x) == x
            assert pickle.loads(pickle.dumps(x)) == x

    def test_tokens_order_as_their_field_tuples(self):
        tokens = [
            Token("a", 1, 2), Token("a", 1, 2, -1), Token("a", 2, 1), Token("a", 1, 3),
            Token("s", 1), Token("s", 2), Token("sigma", 1), Token("sigma", 1, 0, -1),
        ]
        key = _fields
        shuffled = tokens[3:] + tokens[:3]
        assert sorted(shuffled) == sorted(shuffled, key=key)
        assert min(shuffled) == min(shuffled, key=key) and max(shuffled) == max(shuffled, key=key)
        for x, y in itertools.product(tokens, repeat=2):
            assert (x < y, x <= y, x > y, x >= y) == (
                key(x) < key(y), key(x) <= key(y), key(x) > key(y), key(x) >= key(y)
            )
        with pytest.raises(TypeError):
            tokens[0] < _fields(tokens[1])

    def test_family_reports_never_share_checks(self):
        first, second = FamilyReport("welded", 3, 2), FamilyReport("welded", 3, 2)
        first.checks["E"] = True
        assert first.checks is not second.checks and second.checks == {}
        given = {}
        assert FamilyReport("welded", 3, 2, given).checks is given


_RECORD_FIELDS = {
    AxiomResult: ("axiom", "cap", "passed", "first_failure_degree", "residual"),
    ExtensionStep: ("degree", "particular", "kernel", "base", "log", "candidate"),
    EquivalenceReport: ("cap", "yb", "h3", "h1", "as_", "delta_squared_central", "drinfeld_compatible"),
    FiltrationReport: ("element", "cap", "_image", "order"),
    DistinguishReport: ("cap", "first_difference_degree", "oracle_equal"),
    DeltaKernelReport: ("n", "degree", "domain_dimension", "kernel_dimension"),
    HilbertTable: ("n", "cap", "chord_dims", "oriented_dims", "weight_factor"),
    SplittingCase: ("description", "order_plain", "order_twisted", "passed"),
    SplittingReport: ("n", "cap", "cases"),
    CheckOutcome: ("passed", "details"),
}


class TestRecordTypes:
    """The result records are set from their fields, by position, and from nothing else."""

    def test_the_records_are_exactly_the_subclasses_of_the_base(self):
        assert _subclasses(Record) == set(_RECORD_FIELDS)
        for cls, fields in _RECORD_FIELDS.items():
            assert cls.__slots__ == fields
            assert "__init__" not in vars(cls) and cls.__init__ is Record.__init__
        assert FamilyReport not in _RECORD_FIELDS and "__init__" in vars(FamilyReport)

    def test_positional_fields_are_set_in_slot_order(self):
        for cls, fields in _RECORD_FIELDS.items():
            values = [object() for _ in fields]
            record = cls(*values)
            assert [getattr(record, name) for name in fields] == values

    def test_a_wrong_field_count_or_a_keyword_is_refused(self):
        for cls, fields in _RECORD_FIELDS.items():
            for count in (0, len(fields) - 1, len(fields) + 1):
                with pytest.raises(TypeError, match=f"^{cls.__name__} takes the {len(fields)} fields"):
                    cls(*range(count))
            with pytest.raises(TypeError, match="keyword"):
                cls(*range(len(fields) - 1), **{fields[-1]: 0})
            with pytest.raises(TypeError, match="keyword"):
                cls(**dict(zip(fields, range(len(fields)))))

    def test_an_unknown_attribute_is_refused(self):
        for cls, fields in _RECORD_FIELDS.items():
            record = cls(*range(len(fields)))
            with pytest.raises(AttributeError):
                record.unknown = 0
            with pytest.raises(AttributeError):
                record.unknown
            assert not hasattr(record, "__dict__")

    def test_only_extension_steps_compare_field_by_field(self):
        for cls, fields in _RECORD_FIELDS.items():
            x, y = cls(*range(len(fields))), cls(*range(len(fields)))
            assert x == x and not x != x
            if cls is ExtensionStep:
                assert x == y and x != cls(*range(1, len(fields) + 1))
            else:
                assert x != y and len({x, y}) == 2


class TestGroupRing:
    def test_parse_and_print(self):
        xi = GroupRingElement.parse("1*[sig1] - 1*[s1]", 3)
        assert xi.text() == "-1*[s1] + 1*[sig1]"
        assert GroupRingElement.parse(xi.text(), 3) == xi

    def test_identity_brackets(self):
        e = GroupRingElement.parse("1*[]", 3)
        assert e == GroupRingElement.one(3)

    def test_product_expands(self):
        xi = GroupRingElement.parse("1*[a12] - 1*[]", 3)
        sq = xi * xi
        assert sq == GroupRingElement.parse("1*[a12 a12] - 2*[a12] + 1*[]", 3)

    def test_spelling_is_not_normalized(self):
        # distinct spellings of one group element stay distinct terms
        xi = GroupRingElement.parse("1*[sig1 sig2 sig1] - 1*[sig2 sig1 sig2]", 3)
        assert len(xi.terms) == 2

    def test_zero_coefficients_drop(self):
        xi = GroupRingElement.parse("1*[s1] - 1*[s1]", 3)
        assert xi.terms == {}
        assert xi.text() == "0"

    def test_power(self):
        xi = GroupRingElement.parse("1*[a12] - 1*[]", 3)
        assert xi**0 == GroupRingElement.one(3)
        assert xi**2 == xi * xi

    def test_strand_mismatch(self):
        with pytest.raises(WordError):
            GroupRingElement.parse("1*[s1]", 3) + GroupRingElement.parse("1*[s1]", 4)
