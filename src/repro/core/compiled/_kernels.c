/* Sequential C replay kernels for the compiled engine tier.
 *
 * Every function here replays one scalar Python kernel (see the matching
 * file under src/repro/core/): the randomness is still drawn by NumPy in the
 * exact scalar block order, so these loops only *apply* placements,
 * sequentially, one unit at a time.  That is what makes the compiled engine
 * seed-for-seed identical to the scalar reference by construction — there
 * is no speculation and no conflict detection, just the interpreter
 * overhead removed.
 *
 * Round selection orders slots exactly as the Python sorts do:
 *   - strict selection keeps the k smallest slots by (height, tiebreak,
 *     slot index), which is np.lexsort((tie, heights)) including its
 *     index-order stability on full ties;
 *   - the weighted round keeps the k smallest (height, tiebreak, bin)
 *     tuples and then stable-sorts the kept slots by their pre-placement
 *     loads, matching list.sort() / sort(key=...) in core/weighted.py.
 * Heights carry the strict rule's within-round multiplicity: the j-th copy
 * of a bin in a row stands j higher.  One-ball strict rounds need no
 * heights (strict_first_min).  Otherwise rounds of up to SMALL_D probes
 * count copies pairwise and keep the k smallest by insertion; wider rounds
 * count copies in an open-addressed bin table (O(d) expected) and keep k
 * slots in a bounded max-heap (O(d log k)).
 *
 * Scratch is allocated per call, never static: cffi releases the GIL
 * around these calls, so concurrent threads may run them at once.  Round
 * kernels return 0, or -1 when the scratch cannot be allocated.
 */

#include <stdint.h>
#include <stdlib.h>

/* Widest round that still uses the pairwise copy scan and the insertion
 * sort; both beat the table and the heap on a handful of slots. */
#define SMALL_D 32

typedef struct {
    int64_t bin;
    int64_t stamp;
    int64_t count;
} BinSlot;

/* Per-call scratch of the round kernels.  `slots` is the bin table, used
 * only above SMALL_D; an entry belongs to the current row when its stamp
 * matches, so rows never clear it. */
typedef struct {
    void *block;
    int64_t *copies;   /* d: earlier copies of each slot's bin, then heights */
    int64_t *order;    /* d: selected slot indices (also the heap) */
    double *fheights;  /* d: weighted heights */
    int64_t *kept;     /* k: weighted kept bins */
    double *keys;      /* k: weighted pre-placement loads */
    BinSlot *slots;
    uint64_t mask;
    int shift;
    int64_t stamp;
} Scratch;

static int scratch_init(Scratch *s, int64_t d, int64_t k, int weighted)
{
    int64_t cap = 0;
    int shift = 64;
    if (d > SMALL_D) {
        cap = 1;
        while (cap < 2 * d) {
            cap <<= 1;
            shift--;
        }
    }
    int64_t words = 2 * d + (weighted ? d + 2 * k : 0);
    s->block = malloc((size_t)words * 8 + (size_t)cap * sizeof(BinSlot));
    if (s->block == NULL) {
        return -1;
    }
    s->copies = (int64_t *)s->block;
    s->order = s->copies + d;
    s->fheights = (double *)(s->order + d);
    s->kept = (int64_t *)(s->fheights + (weighted ? d : 0));
    s->keys = (double *)(s->kept + (weighted ? k : 0));
    s->slots = (BinSlot *)((int64_t *)s->block + words);
    for (int64_t i = 0; i < cap; i++) {
        s->slots[i].stamp = 0;
    }
    s->mask = (uint64_t)cap - 1;
    s->shift = shift;
    s->stamp = 0;
    return 0;
}

/* copies[j] = how many slots before j sample the same bin as slot j. */
static inline void count_copies(Scratch *s, const int64_t *row, int64_t d,
                                int64_t *copies)
{
    if (d <= SMALL_D) {
        for (int64_t j = 0; j < d; j++) {
            int64_t placed_before = 0;
            for (int64_t m = 0; m < j; m++) {
                if (row[m] == row[j]) {
                    placed_before++;
                }
            }
            copies[j] = placed_before;
        }
        return;
    }
    int64_t stamp = ++s->stamp;
    for (int64_t j = 0; j < d; j++) {
        int64_t bin = row[j];
        uint64_t h = ((uint64_t)bin * 0x9E3779B97F4A7C15ULL) >> s->shift;
        for (;;) {
            BinSlot *slot = &s->slots[h];
            if (slot->stamp != stamp) {
                slot->stamp = stamp;
                slot->bin = bin;
                slot->count = 1;
                copies[j] = 0;
                break;
            }
            if (slot->bin == bin) {
                copies[j] = slot->count++;
                break;
            }
            h = (h + 1) & s->mask;
        }
    }
}

/* Strict key: (height, tie, slot index). */
typedef struct {
    const int64_t *heights;
    const double *ties;
} StrictKeys;

static int strict_less(const void *ctx, int64_t a, int64_t b)
{
    const StrictKeys *key = (const StrictKeys *)ctx;
    int64_t ha = key->heights[a], hb = key->heights[b];
    if (ha != hb) {
        return ha < hb;
    }
    double ta = key->ties[a], tb = key->ties[b];
    if (ta != tb) {
        return ta < tb;
    }
    return a < b;
}

/* Weighted key: (height, tie, bin, slot index). */
typedef struct {
    const double *heights;
    const double *ties;
    const int64_t *bins;
} WeightedKeys;

static int weighted_less(const void *ctx, int64_t a, int64_t b)
{
    const WeightedKeys *key = (const WeightedKeys *)ctx;
    double ha = key->heights[a], hb = key->heights[b];
    if (ha != hb) {
        return ha < hb;
    }
    double ta = key->ties[a], tb = key->ties[b];
    if (ta != tb) {
        return ta < tb;
    }
    int64_t ba = key->bins[a], bb = key->bins[b];
    if (ba != bb) {
        return ba < bb;
    }
    return a < b;
}

typedef int (*SlotLess)(const void *ctx, int64_t a, int64_t b);

static inline void sift_down(SlotLess less, const void *ctx, int64_t *heap,
                             int64_t size, int64_t pos)
{
    int64_t item = heap[pos];
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= size) {
            break;
        }
        if (child + 1 < size && less(ctx, heap[child], heap[child + 1])) {
            child++;
        }
        if (!less(ctx, item, heap[child])) {
            break;
        }
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* The k smallest of slots 0..d-1 under `less`, ascending, into order[0..k).
 * With k == 1 both paths reduce to a linear scan for the first minimum. */
static inline void select_slots(SlotLess less, const void *ctx, int64_t d,
                                int64_t k, int64_t *order)
{
    if (d <= SMALL_D) {
        /* Insertion sort that keeps only the k smallest. */
        int64_t size = 0;
        for (int64_t i = 0; i < d; i++) {
            int64_t m;
            if (size < k) {
                m = size++;
            } else if (less(ctx, i, order[k - 1])) {
                m = k - 1;
            } else {
                continue;
            }
            while (m > 0 && less(ctx, i, order[m - 1])) {
                order[m] = order[m - 1];
                m--;
            }
            order[m] = i;
        }
        return;
    }
    /* Bounded max-heap of the k smallest slots seen so far, then an
     * in-place heapsort pops them into ascending order. */
    for (int64_t j = 0; j < k; j++) {
        order[j] = j;
    }
    for (int64_t pos = k / 2 - 1; pos >= 0; pos--) {
        sift_down(less, ctx, order, k, pos);
    }
    for (int64_t j = k; j < d; j++) {
        if (less(ctx, j, order[0])) {
            order[0] = j;
            sift_down(less, ctx, order, k, 0);
        }
    }
    for (int64_t size = k - 1; size > 0; size--) {
        int64_t top = order[0];
        order[0] = order[size];
        order[size] = top;
        sift_down(less, ctx, order, size, 0);
    }
}

/* The one-ball strict round: the first slot minimising (height, tie).  A
 * later copy of a bin stands strictly higher than its first copy, so only
 * first copies can win; a slot whose load is below every first copy seen
 * so far is itself a first copy, so the copy check runs only when a slot
 * at the current lowest load has a smaller tie. */
static inline int64_t strict_first_min(const int64_t *loads, const int64_t *row,
                                       const double *ties, int64_t d)
{
    int64_t best = 0;
    int64_t best_load = loads[row[0]];
    for (int64_t j = 1; j < d; j++) {
        int64_t load = loads[row[j]];
        if (load > best_load || (load == best_load && ties[j] >= ties[best])) {
            continue;
        }
        if (load == best_load) {
            int64_t m = 0;
            while (m < j && row[m] != row[j]) {
                m++;
            }
            if (m < j) {
                continue;
            }
        }
        best = j;
        best_load = load;
    }
    return row[best];
}

/* One strict (k, d)-choice selection of `row` against `loads`, destinations
 * written to `dest` in ball order.  Matches core/policies.py strict_select. */
static inline void strict_round(Scratch *s, const int64_t *loads,
                                const int64_t *row, const double *ties,
                                int64_t d, int64_t k, int64_t *dest)
{
    if (k == 1) {
        dest[0] = strict_first_min(loads, row, ties, d);
        return;
    }
    int64_t *heights = s->copies;
    count_copies(s, row, d, heights);
    for (int64_t j = 0; j < d; j++) {
        heights[j] += loads[row[j]] + 1;
    }
    StrictKeys keys = {heights, ties};
    select_slots(strict_less, &keys, d, k, s->order);
    for (int64_t j = 0; j < k; j++) {
        dest[j] = row[s->order[j]];
    }
}

/* Sequential strict (k, d)-choice rounds, mutating `loads` between rounds
 * exactly like repeated strict_select calls.  `out` is (r, k), ball order. */
int repro_kd_rounds(int64_t *loads, const int64_t *samples,
                    const double *ties, int64_t r, int64_t d, int64_t k,
                    int64_t *out)
{
    Scratch s;
    if (scratch_init(&s, d, k, 0) != 0) {
        return -1;
    }
    for (int64_t row = 0; row < r; row++) {
        int64_t *dest = out + row * k;
        strict_round(&s, loads, samples + row * d, ties + row * d, d, k, dest);
        for (int64_t j = 0; j < k; j++) {
            loads[dest[j]] += 1;
        }
    }
    free(s.block);
    return 0;
}

/* Stale-information epochs: `epochs` consecutive blocks of `r` rows.  Every
 * row of an epoch is selected against `loads` as they stood at the epoch
 * start; with `commit` set, the epoch's placements are added to `loads` at
 * its end, before the next epoch's rows are selected.  Without it `loads`
 * is only read: one frozen snapshot (the rest of an epoch already under
 * way, whose placements its owner commits).  `out` is (epochs * r, k) in
 * ball order. */
int repro_stale_epochs(int64_t *loads, const int64_t *samples,
                       const double *ties, int64_t epochs, int64_t r,
                       int64_t d, int64_t k, int commit, int64_t *out)
{
    Scratch s;
    if (scratch_init(&s, d, k, 0) != 0) {
        return -1;
    }
    for (int64_t first = 0; first < epochs * r; first += r) {
        for (int64_t row = first; row < first + r; row++) {
            strict_round(&s, loads, samples + row * d, ties + row * d, d, k,
                         out + row * k);
        }
        if (commit) {
            const int64_t *dest = out + first * k;
            for (int64_t j = 0; j < r * k; j++) {
                loads[dest[j]] += 1;
            }
        }
    }
    free(s.block);
    return 0;
}

/* Sequential weighted (k, d)-choice rounds; see weighted_round_apply in
 * core/weighted.py.  `weights` is (r, k) with each row sorted descending
 * (heaviest ball first); `increments` is each row's mean weight.  `loads`
 * is the float weighted-load vector, `counts` the integer ball counts.
 * `out` is (r, k), ball order (heaviest ball first). */
int repro_weighted_rounds(double *loads, int64_t *counts,
                          const int64_t *samples, const double *ties,
                          const double *weights, const double *increments,
                          int64_t r, int64_t d, int64_t k, int64_t *out)
{
    Scratch s;
    if (scratch_init(&s, d, k, 1) != 0) {
        return -1;
    }
    int64_t *kept = s.kept;
    double *keys = s.keys;
    for (int64_t row = 0; row < r; row++) {
        const int64_t *b = samples + row * d;
        const double *w = weights + row * k;
        double increment = increments[row];

        count_copies(&s, b, d, s.copies);
        for (int64_t j = 0; j < d; j++) {
            s.fheights[j] = loads[b[j]] + increment * (double)(s.copies[j] + 1);
        }
        WeightedKeys slot_keys = {s.fheights, ties + row * d, b};
        select_slots(weighted_less, &slot_keys, d, k, s.order);
        for (int64_t j = 0; j < k; j++) {
            kept[j] = b[s.order[j]];
        }
        /* Heaviest ball to the least-loaded kept slot: stable sort of the
         * kept bins by their pre-placement loads (keys snapshot first, as
         * Python's sort(key=...) evaluates keys before sorting). */
        for (int64_t j = 0; j < k; j++) {
            keys[j] = loads[kept[j]];
        }
        for (int64_t i = 1; i < k; i++) {
            double key = keys[i];
            int64_t bin = kept[i];
            int64_t m = i - 1;
            while (m >= 0 && keys[m] > key) {
                keys[m + 1] = keys[m];
                kept[m + 1] = kept[m];
                m--;
            }
            keys[m + 1] = key;
            kept[m + 1] = bin;
        }
        int64_t *dest = out + row * k;
        for (int64_t j = 0; j < k; j++) {
            loads[kept[j]] += w[j];
            counts[kept[j]] += 1;
            dest[j] = kept[j];
        }
    }
    free(s.block);
    return 0;
}

/* Sequential (1 + beta)-choice balls; see OnePlusBetaStepper.step. */
void repro_one_plus_beta(int64_t *loads, const uint8_t *coins,
                         const int64_t *first, const int64_t *second,
                         int64_t n, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t target = first[i];
        if (coins[i]) {
            int64_t b = second[i];
            if (loads[b] < loads[target]) {
                target = b;
            }
        }
        loads[target] += 1;
        out[i] = target;
    }
}

/* Sequential Always-Go-Left balls: first least-loaded probe of each row
 * (strict < scan, earliest minimum wins = "go left"). */
void repro_always_go_left(int64_t *loads, const int64_t *probes,
                          int64_t n, int64_t d, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t *row = probes + i * d;
        int64_t best = row[0];
        int64_t best_load = loads[best];
        for (int64_t j = 1; j < d; j++) {
            int64_t b = row[j];
            int64_t load = loads[b];
            if (load < best_load) {
                best_load = load;
                best = b;
            }
        }
        loads[best] += 1;
        out[i] = best;
    }
}

/* Sequential threshold-probing balls; see threshold_place in
 * core/adaptive.py.  `limits` carries each ball's threshold (the default
 * average rule and fixed thresholds are pure functions of the ball index,
 * precomputed by the caller). */
void repro_threshold(int64_t *loads, const int64_t *probes,
                     const int64_t *limits, int64_t n, int64_t max_probes,
                     int64_t *out_bins, int64_t *out_used)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t *row = probes + i * max_probes;
        int64_t limit = limits[i];
        int64_t best = row[0];
        int64_t best_load = loads[best];
        int64_t used = 1;
        if (best_load > limit) {
            for (int64_t j = 1; j < max_probes; j++) {
                used++;
                int64_t b = row[j];
                int64_t load = loads[b];
                if (load < best_load) {
                    best_load = load;
                    best = b;
                }
                if (load <= limit) {
                    break;
                }
            }
        }
        loads[best] += 1;
        out_bins[i] = best;
        out_used[i] = used;
    }
}

/* Sequential two-phase adaptive balls; see two_phase_place in
 * core/adaptive.py. */
void repro_two_phase(int64_t *loads, const int64_t *primary,
                     const int64_t *fallback, int64_t n,
                     int64_t retry_probes, int64_t cap,
                     int64_t *out_bins, uint8_t *out_retried)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t p = primary[i];
        if (loads[p] < cap) {
            loads[p] += 1;
            out_bins[i] = p;
            out_retried[i] = 0;
            continue;
        }
        const int64_t *row = fallback + i * retry_probes;
        int64_t best = row[0];
        int64_t best_load = loads[best];
        for (int64_t j = 1; j < retry_probes; j++) {
            int64_t b = row[j];
            int64_t load = loads[b];
            if (load < best_load) {
                best_load = load;
                best = b;
            }
        }
        loads[best] += 1;
        out_bins[i] = best;
        out_retried[i] = 1;
    }
}
