"""Seeded synthetic inputs for the workloads.

Everything comes from :mod:`repro.data.synthetic`; this module only
shapes it: long-tailed (log-normal) history lengths with the same mix for
every seed, entity ids equal to
the dataset index, and event-chunk streams whose entity choice follows a
Zipf popularity (or a uniform one).  The same seed gives the same
inputs; the program sees nothing but the generated sequences.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from repro.data.sequences import SequenceDataset
from repro.data.synthetic import (STRESS_SCHEMA, make_churn_dataset,
                                  make_stress_history)


def longtail_lengths(rng, count, median, sigma, low, high):
    """Log-normal history lengths around ``median``, clipped to a range.

    The lengths are the distribution's ``count`` quantiles, so every seed
    gets the same length mix; the seed decides which entity gets which.
    """
    normal = NormalDist(np.log(median), sigma)
    raw = np.exp([normal.inv_cdf((i + 0.5) / count) for i in range(count)])
    return rng.permutation(
        np.clip(np.round(raw), low, high).astype(np.int64))


def seed_of(*parts):
    """A child seed for one input stream, derived from the run's seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def churn_population(seed, params):
    """Churn-shaped population with a long-tailed length mix.

    Entities are generated in length cohorts (powers of two) at the
    cohort's upper length and cut to their drawn length, so the Markov
    structure of the churn world is kept at every length.
    """
    rng = np.random.default_rng(seed_of(seed, 1))
    lengths = longtail_lengths(rng, params["population"],
                               params["length_median"],
                               params["length_sigma"], params["length_min"],
                               params["length_max"])
    sequences = [None] * len(lengths)
    schema = None
    upper = 8
    lower = 0
    while lower < lengths.max():
        members = np.flatnonzero((lengths > lower) & (lengths <= upper))
        if len(members):
            cohort = make_churn_dataset(num_clients=len(members),
                                        mean_length=upper, min_length=upper,
                                        max_length=upper,
                                        seed=seed_of(seed, 2, upper))
            schema = cohort.schema
            for entity, seq in zip(members, cohort.sequences):
                seq = seq.slice(0, int(lengths[entity]))
                seq.seq_id = int(entity)
                sequences[entity] = seq
        lower, upper = upper, upper * 2
    return SequenceDataset(sequences, schema, name="longtail-churn")


def stress_population(seed, params):
    """Serving population over the stress schema, long-tailed lengths.

    One vectorised :func:`make_stress_history` call per distinct length;
    entity ids are ``0..population-1``.
    """
    rng = np.random.default_rng(seed_of(seed, 3))
    lengths = longtail_lengths(rng, params["population"],
                               params["length_median"],
                               params["length_sigma"], params["length_min"],
                               params["length_max"])
    sequences = [None] * len(lengths)
    for length in np.unique(lengths):
        members = np.flatnonzero(lengths == length)
        cohort = make_stress_history(len(members), min_events=int(length),
                                     max_events=int(length),
                                     seed=seed_of(seed, 4, int(length)))
        for entity, seq in zip(members, cohort.sequences):
            seq.seq_id = int(entity)
            sequences[entity] = seq
    return SequenceDataset(sequences, STRESS_SCHEMA, name="longtail-stress")


class ChunkStream:
    """Post-history event chunks, generated segment by segment.

    Entity choice per chunk follows a Zipf popularity with exponent
    ``zipf`` over a seeded ranking of the population (``zipf=0``:
    uniform).  Each chunk's times continue after the entity's previous
    chunk (or its history), so any prefix of the stream is a valid
    append-only ingest.  Segment ``k`` depends only on the seed and the
    segments before it, so a longer run replays a shorter one's prefix.
    """

    def __init__(self, history, seed, params):
        self.seed = seed
        self.params = params
        self.time_field = history.schema.time_field
        self.last = np.asarray([seq.fields[self.time_field][-1]
                                for seq in history.sequences],
                               dtype=np.float64)
        count = len(history)
        rng = np.random.default_rng(seed_of(seed, 5))
        ranking = rng.permutation(count)
        weights = np.arange(1, count + 1, dtype=np.float64) ** -params["zipf"]
        self.ranking = ranking
        self.popularity = weights / weights.sum()
        self.segments = 0

    def entities(self, rng, size):
        """``size`` entity ids drawn from the popularity."""
        ranks = rng.choice(len(self.ranking), size=size, p=self.popularity)
        return self.ranking[ranks]

    def segment(self, num_events):
        """The next chunks, about ``num_events`` events in total."""
        params = self.params
        mean = 0.5 * (params["chunk_min"] + params["chunk_max"])
        num_chunks = max(1, int(round(num_events / mean)))
        key = (self.seed, 6, self.segments)
        self.segments += 1
        rng = np.random.default_rng(seed_of(*key))
        payload = make_stress_history(num_chunks,
                                      min_events=params["chunk_min"],
                                      max_events=params["chunk_max"],
                                      mean_gap=params["chunk_gap"],
                                      seed=seed_of(*key, 1))
        owners = self.entities(rng, num_chunks)
        gaps = rng.exponential(params["chunk_gap"], size=num_chunks)
        chunks = payload.sequences
        for chunk, owner, gap in zip(chunks, owners, gaps):
            times = chunk.fields[self.time_field]
            times = self.last[owner] + gap + (times - times[0])
            chunk.fields[self.time_field] = times
            chunk.seq_id = int(owner)
            self.last[owner] = times[-1]
        return chunks
