// analyzer-virtual-path: src/decode/fixture_pointer_keyed.cc
// Self-test fixture: a container keyed by a raw pointer in an
// output-assembly layer must trip pointer-keyed-container — iteration
// order follows allocation addresses, which vary run to run.
#include <cstdint>
#include <map>

struct Block;

std::uint64_t
totalVisits(const std::map<const Block *, std::uint64_t> &visits)
{
    std::uint64_t total = 0;
    for (const auto &[block, count] : visits)
        total += count;
    return total;
}
