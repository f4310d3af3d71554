// analyzer-virtual-path: src/analysis/fixture_raw_rand.cc
// Self-test fixture: global C RNG outside util/rng.h must trip the
// raw-rand rule.  Never compiled; analyzed only.
#include <cstdlib>

int
pickCore(int cores)
{
    return rand() % cores;
}
