from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from notegrade.errors import ParseError, PitchError
from notegrade.pitch import (
    STANDARD_TUNING,
    JianpuNote,
    KeySignature,
    ScientificPitch,
    TabEvent,
    Tuning,
    check_midi,
    jianpu_to_midi,
    midi_to_scientific,
    pitch_class_from_name,
    scientific_to_midi,
    sort_chord,
    tab_to_midi,
)

# Standard-tuning fretboard worked out by hand from the open strings
# e4=64 B3=59 G3=55 D3=50 A2=45 E2=40.
FRETBOARD = {
    (1, 0): 64, (1, 1): 65, (1, 5): 69, (1, 12): 76, (1, 24): 88,
    (2, 0): 59, (2, 1): 60, (2, 5): 64, (2, 12): 71, (2, 24): 83,
    (3, 0): 55, (3, 1): 56, (3, 5): 60, (3, 12): 67, (3, 24): 79,
    (4, 0): 50, (4, 1): 51, (4, 5): 55, (4, 12): 62, (4, 24): 74,
    (5, 0): 45, (5, 1): 46, (5, 5): 50, (5, 12): 57, (5, 24): 69,
    (6, 0): 40, (6, 1): 41, (6, 5): 45, (6, 12): 52, (6, 24): 64,
}


@pytest.mark.parametrize("string,fret", sorted(FRETBOARD))
def test_tab_to_midi_against_fretboard_chart(string, fret):
    assert tab_to_midi(TabEvent(string, fret)) == FRETBOARD[(string, fret)]


def test_check_midi_bounds():
    assert check_midi(0) == 0
    assert check_midi(127) == 127
    with pytest.raises(PitchError):
        check_midi(-1)
    with pytest.raises(PitchError):
        check_midi(128)
    with pytest.raises(PitchError):
        check_midi(True)
    with pytest.raises(PitchError):
        check_midi(60.0)


@pytest.mark.parametrize("midi,name", [
    (60, "C4"), (61, "C#4"), (69, "A4"), (0, "C-1"), (127, "G9"),
])
def test_midi_to_scientific_names(midi, name):
    assert midi_to_scientific(midi).name == name


def test_scientific_round_trip_all_midi():
    for midi in range(128):
        assert scientific_to_midi(midi_to_scientific(midi)) == midi


def test_scientific_pitches_order_by_their_fields():
    # Letter, then sharp, then octave: not by height.
    names = [midi_to_scientific(m).name for m in (60, 69, 61, 57, 70)]
    assert names == ["C4", "A4", "C#4", "A3", "A#4"]
    ordered = sorted(map(midi_to_scientific, (60, 69, 61, 57, 70)))
    assert [p.name for p in ordered] == ["A3", "A4", "A#4", "C4", "C#4"]
    assert ScientificPitch("B", False, 0) < ScientificPitch("C", False, 0)
    assert ScientificPitch("C", True, 9) > ScientificPitch("C", False, 9)


@pytest.mark.parametrize("name,midi", [
    ("C4", 60), ("c4", 60), ("Bb3", 58), ("A#3", 58), ("F#5", 78),
    ("C-1", 0), ("G9", 127),
])
def test_scientific_to_midi_accepts_flats_and_case(name, midi):
    assert scientific_to_midi(name) == midi


@pytest.mark.parametrize("name", ["", "H4", "C", "C##4", "4C", "Cb"])
def test_scientific_to_midi_rejects_malformed(name):
    with pytest.raises(ParseError):
        scientific_to_midi(name)


def test_scientific_to_midi_rejects_out_of_range():
    with pytest.raises(PitchError):
        scientific_to_midi("A9")


@pytest.mark.parametrize("octave", [
    "9" * 5000, "-" + "9" * 5000, "100", "-" + "0" * 5000 + "100",
], ids=["5000_digits", "minus_5000_digits", "3_digits", "zeros_3_digits"])
def test_an_octave_of_many_digits_is_out_of_range(octave):
    # A length check, not int(), turns away more digits than int() reads.
    with pytest.raises(PitchError, match="outside"):
        scientific_to_midi("C" + octave)


def test_leading_zeros_do_not_count_as_octave_digits():
    assert scientific_to_midi("C" + "0" * 5000 + "4") == 60
    assert scientific_to_midi("C-01") == 0


def test_pitch_class_names():
    assert pitch_class_from_name("C") == 0
    assert pitch_class_from_name("F#") == 6
    assert pitch_class_from_name("Gb") == 6
    assert pitch_class_from_name("Bb") == 10
    for name in ("X", "Fb", "E#", "B#", "Cbb"):
        with pytest.raises(ParseError):
            pitch_class_from_name(name)


def test_key_signature_base_midi_anchored_at_octave_4():
    assert KeySignature.parse("C").base_midi == 60
    assert KeySignature.parse("B").base_midi == 71
    assert KeySignature.parse("F#").base_midi == 66


def test_jianpu_degree_intervals_in_c():
    key = KeySignature.parse("C")
    semis = [jianpu_to_midi(JianpuNote(d), key) - 60 for d in range(1, 8)]
    assert semis == [0, 2, 4, 5, 7, 9, 11]


def test_jianpu_octave_mark_adds_twelve():
    for key_name in ("C", "F#", "Bb"):
        key = KeySignature.parse(key_name)
        for degree in range(1, 8):
            base = jianpu_to_midi(JianpuNote(degree), key)
            assert jianpu_to_midi(JianpuNote(degree, 1), key) == base + 12
            assert jianpu_to_midi(JianpuNote(degree, -1), key) == base - 12


def test_jianpu_transposition_shifts_every_degree_equally():
    c_key = KeySignature.parse("C")
    for tonic in range(12):
        key = KeySignature(tonic)
        for degree in range(1, 8):
            assert (jianpu_to_midi(JianpuNote(degree), key)
                    == jianpu_to_midi(JianpuNote(degree), c_key) + tonic)


def test_jianpu_rest_has_no_pitch():
    with pytest.raises(PitchError):
        jianpu_to_midi(JianpuNote(0), KeySignature.parse("C"))


def test_jianpu_out_of_range_octave():
    with pytest.raises(PitchError):
        jianpu_to_midi(JianpuNote(7, 5), KeySignature.parse("B"))


def test_standard_tuning_open_strings():
    assert [STANDARD_TUNING.open_midi(s) for s in range(1, 7)] == \
        [64, 59, 55, 50, 45, 40]


def test_tuning_rejects_non_decreasing():
    with pytest.raises(PitchError):
        Tuning((40, 45, 50, 55, 59, 64))
    with pytest.raises(PitchError):
        Tuning((64, 59, 55, 50, 45))


def test_tab_event_validation():
    with pytest.raises(PitchError):
        TabEvent(0, 0)
    with pytest.raises(PitchError):
        TabEvent(7, 0)
    with pytest.raises(PitchError):
        TabEvent(1, 25)
    with pytest.raises(PitchError):
        TabEvent(1, -1)


def test_tab_to_midi_range_guard():
    high = Tuning((110, 100, 90, 80, 70, 60))
    with pytest.raises(PitchError):
        tab_to_midi(TabEvent(1, 24), high)


def test_sort_chord_orders_and_dedupes():
    assert sort_chord([67, 60, 64]) == [60, 64, 67]
    assert sort_chord([60, 60, 64]) == [60, 64]
    with pytest.raises(PitchError):
        sort_chord([])
    with pytest.raises(PitchError):
        sort_chord([60, 128])


@given(st.lists(st.integers(min_value=0, max_value=127), min_size=1),
       st.randoms())
def test_sort_chord_permutation_invariant(pitches, rng):
    shuffled = list(pitches)
    rng.shuffle(shuffled)
    assert sort_chord(shuffled) == sort_chord(pitches)


@given(st.lists(st.integers(min_value=0, max_value=127), min_size=1))
def test_sort_chord_strictly_ascending(pitches):
    result = sort_chord(pitches)
    assert all(a < b for a, b in zip(result, result[1:]))
    assert set(result) == set(pitches)


@pytest.mark.parametrize("name", ["C٤", "C+4", "C0_4", "C-٠"])
def test_scientific_to_midi_takes_ascii_digits_only(name):
    with pytest.raises(ParseError):
        scientific_to_midi(name)
