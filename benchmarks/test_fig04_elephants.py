"""E4 / Fig. 4: Clyde the royal elephant.

Elephants are grey — except royal elephants, explicitly cancelled to
white — except Clyde, cancelled to dappled.  Appu, both royal and
Indian, is white: his Indian membership is an irrelevant fact because
no Indian-elephant colour is asserted.
"""

PAPER_COLOURS = {
    "clyde": "dappled",
    "appu": "white",
}


def colour_of(relation, animal, palette):
    for colour in palette:
        if relation.truth_of((animal, colour)):
            return colour
    return None


def test_fig4_colours(elephants, benchmark):
    palette = elephants.color.leaves()

    def all_colours():
        return {
            animal: colour_of(elephants.animal_color, animal, palette)
            for animal in PAPER_COLOURS
        }

    assert benchmark(all_colours) == PAPER_COLOURS


def test_fig4_explicit_cancellations_required(elephants, benchmark):
    """Without the cancellation, royal elephants would be grey and white
    at once — the relation must store -(royal_elephant, grey)."""
    def stored_signs():
        r = elephants.animal_color
        return (
            r.truth_of_stored(("royal_elephant", "grey")),
            r.truth_of_stored(("royal_elephant", "white")),
            r.truth_of_stored(("clyde", "white")),
            r.truth_of_stored(("clyde", "dappled")),
        )

    assert benchmark(stored_signs) == (False, True, False, True)


def test_fig4_consistency(elephants, benchmark):
    relation = elephants.animal_color

    def full_scan():
        relation._clean_stamp = None  # a full scan, not the no-change one
        return relation.is_consistent()

    assert benchmark(full_scan)


def test_fig4_class_level_queries(elephants, benchmark):
    def verdicts():
        r = elephants.animal_color
        return (
            r.truth_of(("elephant", "grey")),
            r.truth_of(("royal_elephant", "grey")),
            r.truth_of(("royal_elephant", "white")),
            r.truth_of(("indian_elephant", "grey")),
        )

    assert benchmark(verdicts) == (True, False, True, True)
