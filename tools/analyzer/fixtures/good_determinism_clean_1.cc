// analyzer-virtual-path: src/cluster/fixture_clean.cc
// Self-test fixture: idiomatic code — ordered containers, exist::Rng
// streams, annotated locking — must pass every rule.
#include <cstdint>
#include <map>
#include <string>

#include "util/rng.h"
#include "util/thread_annotations.h"

std::uint64_t
orderedTotal(const std::map<std::string, std::uint64_t> &sizes,
             std::uint64_t seed)
{
    exist::Rng rng(exist::splitmix64(seed));
    static exist::Mutex mu(exist::lockorder::LockRank::kLeaf, "fixture");
    exist::MutexLock lk(mu);
    std::uint64_t total = rng.next() & 1;
    for (const auto &[key, bytes] : sizes)
        total += bytes;
    return total;
}
