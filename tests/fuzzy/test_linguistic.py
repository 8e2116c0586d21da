"""Unit tests for linguistic variables and descriptors."""

import random

import pytest

from repro.exceptions import BackgroundKnowledgeError
from repro.fuzzy.linguistic import Descriptor, LinguisticVariable
from repro.fuzzy.membership import CrispSetMembership, TrapezoidalMembership
from repro.fuzzy.vocabularies import medical_background_knowledge


@pytest.fixture
def age_variable():
    return LinguisticVariable(
        "age",
        {
            "young": TrapezoidalMembership(0, 0, 18, 25),
            "adult": TrapezoidalMembership(18, 25, 60, 70),
            "old": TrapezoidalMembership(60, 70, 120, 120),
        },
    )


class TestDescriptor:
    def test_string_representation(self):
        assert str(Descriptor("age", "young")) == "age:young"

    def test_equality(self):
        assert Descriptor("age", "young") == Descriptor("age", "young")
        assert Descriptor("age", "young") != Descriptor("age", "adult")

    def test_hashable(self):
        descriptors = {Descriptor("age", "young"), Descriptor("age", "young")}
        assert len(descriptors) == 1

    def test_ordering(self):
        assert Descriptor("age", "adult") < Descriptor("age", "young")
        assert Descriptor("age", "young") < Descriptor("bmi", "normal")


class TestDescriptorContract:
    """What every set, dict and sort of descriptors relies on.

    A descriptor hashes as its ``(attribute, label)`` tuple, which fixes the
    layout and iteration order of every set of descriptors, and so the order
    of every float fold over one.

    A descriptor also *equals* that plain tuple.  ``src/`` keys one dict with
    raw ``(attribute, label)`` tuples, ``HierarchyQueryIndex._postings``
    (``querying/engine.py``): it is filled from intent label strings and probed
    with ``(clause.attribute, label)``, and no descriptor reaches it.  No dict
    or set under ``src/`` holds both descriptors and raw 2-tuples.
    """

    @pytest.fixture
    def medical_descriptors(self):
        return medical_background_knowledge().descriptors()

    def test_hash_is_the_tuple_hash(self, medical_descriptors):
        for descriptor in medical_descriptors:
            attribute, label = descriptor
            assert hash(descriptor) == hash((attribute, label))

    def test_set_iteration_order_is_the_tuple_set_order(self, medical_descriptors):
        pairs = [(d.attribute, d.label) for d in medical_descriptors]
        assert [tuple(d) for d in set(medical_descriptors)] == list(set(pairs))

    def test_sort_is_attribute_then_label(self, medical_descriptors):
        shuffled = list(medical_descriptors)
        random.Random(7).shuffle(shuffled)
        assert sorted(shuffled) == sorted(
            shuffled, key=lambda d: (d.attribute, d.label)
        )

    def test_repr_and_str(self):
        descriptor = Descriptor("age", "young")
        assert repr(descriptor) == "Descriptor(attribute='age', label='young')"
        assert str(descriptor) == "age:young"
        assert f"{descriptor}" == "age:young"

    def test_keyword_construction(self):
        assert Descriptor(attribute="age", label="young") == Descriptor("age", "young")
        assert Descriptor("age", label="young").label == "young"

    def test_immutable(self):
        descriptor = Descriptor("age", "young")
        with pytest.raises(AttributeError):
            descriptor.label = "old"
        with pytest.raises(AttributeError):
            descriptor.extra = 1

    def test_equals_its_plain_tuple(self):
        assert Descriptor("age", "young") == ("age", "young")
        assert len({Descriptor("age", "young"), ("age", "young")}) == 1


class TestLinguisticVariable:
    def test_labels_preserve_order(self, age_variable):
        assert age_variable.labels == ["young", "adult", "old"]

    def test_descriptors(self, age_variable):
        assert Descriptor("age", "adult") in age_variable.descriptors
        assert len(age_variable.descriptors) == 3

    def test_membership_lookup(self, age_variable):
        assert age_variable.membership("young").grade(10) == 1.0

    def test_unknown_label_raises(self, age_variable):
        with pytest.raises(BackgroundKnowledgeError):
            age_variable.membership("baby")

    def test_grade(self, age_variable):
        assert age_variable.grade("young", 10) == 1.0
        assert age_variable.grade("old", 10) == 0.0

    def test_fuzzify_returns_positive_grades_only(self, age_variable):
        graded = age_variable.fuzzify(20)
        assert Descriptor("age", "young") in graded
        assert Descriptor("age", "adult") in graded
        assert Descriptor("age", "old") not in graded

    def test_fuzzify_grades_sum_to_one_for_ruspini_like_partition(self, age_variable):
        graded = age_variable.fuzzify(20)
        assert sum(graded.values()) == pytest.approx(1.0)

    def test_fuzzify_threshold(self, age_variable):
        graded = age_variable.fuzzify(24, threshold=0.5)
        assert list(graded) == [Descriptor("age", "adult")]

    def test_best_label(self, age_variable):
        assert age_variable.best_label(10) == "young"
        assert age_variable.best_label(90) == "old"

    def test_best_label_none_outside_domain(self):
        variable = LinguisticVariable(
            "bmi", {"normal": TrapezoidalMembership(18, 19, 24, 26)}
        )
        assert variable.best_label(50) is None

    def test_contains_and_len(self, age_variable):
        assert "young" in age_variable
        assert "baby" not in age_variable
        assert len(age_variable) == 3

    def test_iteration(self, age_variable):
        assert list(age_variable) == ["young", "adult", "old"]

    def test_empty_terms_raise(self):
        with pytest.raises(BackgroundKnowledgeError):
            LinguisticVariable("age", {})

    def test_categorical_variable(self):
        variable = LinguisticVariable(
            "sex",
            {
                "female": CrispSetMembership(["female"]),
                "male": CrispSetMembership(["male"]),
            },
        )
        graded = variable.fuzzify("female")
        assert graded == {Descriptor("sex", "female"): 1.0}
        assert variable.has_label("male")
