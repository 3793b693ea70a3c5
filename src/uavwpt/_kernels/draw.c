/* The random variates of a sweep's draw block, one numpy stream per row.
 *
 * Row b draws exactly what Generator(PCG64(SeedSequence(seed,
 * spawn_key=(cells[b], trials[b])))) draws for n_uniform calls of random()
 * followed by standard_normal() of n_normal values: channel.trial_rng's
 * stream, bit for bit.  Both steps are numpy's, kept fixed under its stream
 * compatibility policy (NEP 19):
 *
 *   - SeedSequence's hash (O'Neill's seed_seq_fe, pcg-random.org, 2014)
 *     mixes the seed's uint32 words (zero-padded to the pool size), then
 *     the cell's and the trial's (one word below 2^32, else two) into a
 *     pool of four words, and generate_state(4, uint64) reads eight words
 *     back out of it;
 *   - PCG64 seeds its 128-bit LCG with inc = 2 * initseq + 1 and two steps,
 *     and outputs XSL-RR; random() is (next_uint64 >> 11) * 2^-53.
 *
 * The normals come from numpy's own ziggurat, random_standard_normal_fill
 * in numpy/random/lib/libnpyrandom.a, which numpy ships for extensions to
 * link.  Only the bitgen_t struct (numpy/random/bitgen.h) and that one
 * prototype are declared here, so no CPython or numpy header is needed.
 * unsigned __int128 is a GCC and Clang extension, marked __extension__ so
 * that -Wpedantic builds stay clean.
 */

#include <stdint.h>

typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

__extension__ typedef unsigned __int128 u128;

#define POOL_SIZE 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define PCG64_MULT (((u128)0x2360ed051fc65da4u << 64) | 0x4385df649fccf645u)

typedef struct {
    u128 state, inc;
} pcg64;

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ (result >> 16);
}

/* SeedSequence(seed, spawn_key=(cell, trial)) seeding PCG64; n_seed >= POOL_SIZE. */
static void seed_stream(pcg64 *rng, const uint32_t *seed, int64_t n_seed, uint64_t cell,
                        uint64_t trial)
{
    uint32_t key[4], pool[POOL_SIZE], out[2 * POOL_SIZE], hash_const = INIT_A;
    uint64_t words[POOL_SIZE];
    int n_key = 0;
    key[n_key++] = (uint32_t)cell;
    if (cell >> 32)
        key[n_key++] = (uint32_t)(cell >> 32);
    key[n_key++] = (uint32_t)trial;
    if (trial >> 32)
        key[n_key++] = (uint32_t)(trial >> 32);

    for (int i = 0; i < POOL_SIZE; i++)
        pool[i] = hashmix(seed[i], &hash_const);
    for (int src = 0; src < POOL_SIZE; src++)
        for (int dst = 0; dst < POOL_SIZE; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t src = POOL_SIZE; src < n_seed + n_key; src++) {
        uint32_t word = src < n_seed ? seed[src] : key[src - n_seed];
        for (int dst = 0; dst < POOL_SIZE; dst++)
            pool[dst] = mix(pool[dst], hashmix(word, &hash_const));
    }

    hash_const = INIT_B;
    for (int i = 0; i < 2 * POOL_SIZE; i++) {
        uint32_t value = pool[i % POOL_SIZE] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        out[i] = value ^ (value >> 16);
    }
    for (int i = 0; i < POOL_SIZE; i++)
        words[i] = out[2 * i] | (uint64_t)out[2 * i + 1] << 32;

    u128 initstate = (u128)words[0] << 64 | words[1];
    u128 initseq = (u128)words[2] << 64 | words[3];
    rng->inc = initseq << 1 | 1;
    rng->state = (rng->inc + initstate) * PCG64_MULT + rng->inc;
}

static uint64_t next_uint64(void *st)
{
    pcg64 *rng = st;
    rng->state = rng->state * PCG64_MULT + rng->inc;
    uint64_t value = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return value >> rot | value << (-rot & 63u);
}

static double next_double(void *st)
{
    return (double)(next_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* uniform is (rows, n_uniform) and normal (rows, n_normal), both C order. */
void draw_variates(int64_t rows, const uint32_t *seed, int64_t n_seed, const uint64_t *cells,
                   const uint64_t *trials, int64_t n_uniform, int64_t n_normal,
                   double *uniform, double *normal)
{
    pcg64 rng;
    /* The ziggurat calls only next_uint64 and next_double. */
    bitgen_t bitgen = {&rng, next_uint64, 0, next_double, 0};
    for (int64_t b = 0; b < rows; b++) {
        seed_stream(&rng, seed, n_seed, cells[b], trials[b]);
        for (int64_t i = 0; i < n_uniform; i++)
            uniform[b * n_uniform + i] = next_double(&rng);
        random_standard_normal_fill(&bitgen, (intptr_t)n_normal, normal + b * n_normal);
    }
}
