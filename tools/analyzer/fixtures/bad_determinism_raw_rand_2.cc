// analyzer-virtual-path: src/decode/fixture_mt19937.cc
// Self-test fixture: std engines outside util/rng.h must trip
// raw-rand even when seeded deterministically — streams must fork via
// exist::Rng so draw order can't leak between components.
#include <random>

unsigned
jitter()
{
    std::mt19937 gen(42);
    return gen();
}
