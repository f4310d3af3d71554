/**
 * @file
 * Self-test of the benchmark's TimingJournal: a short stream journaled
 * through the decorator must leave a WAL directory (segments and
 * snapshot images) byte-identical to the same stream journaled
 * directly, and must charge hook time to every request. The control
 * plane runs its lanes inline (threads = 1), so the log order is fixed.
 *
 * usage: perfbench_selftest [SCRATCH_DIR]   (exit 0 = pass)
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "cluster/shard/sharded_master.h"
#include "common.h"
#include "durability/journal.h"

using namespace exist;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

using DirImage = std::map<std::string, std::string>;

DirImage
readDir(const fs::path &dir)
{
    DirImage image;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::ifstream in(e.path(), std::ios::binary);
        image[e.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    return image;
}

/** Journal three two-request rounds into `dir`; returns the number of
 *  requests the decorator (when used) charged no time to. */
std::size_t
journalStream(const fs::path &dir, bool through_decorator)
{
    ClusterConfig cc;
    cc.num_nodes = 4;
    cc.cores_per_node = 4;
    Cluster cluster(cc);
    cluster.deploy("Cache", 2);
    cluster.deploy("Search2", 2);

    durability::ClusterMeta meta;
    meta.cluster_seed = cc.seed;
    meta.num_nodes = cc.num_nodes;
    meta.cores_per_node = cc.cores_per_node;
    meta.shards = 2;
    meta.snapshot_interval = 2;
    meta.deployments = {{"Cache", 2}, {"Search2", 2}};
    durability::Journal journal({dir.string(), 2}, meta);
    TimingJournal timing(journal);

    ShardedMaster master(&cluster, {}, 2, 1);
    master.attachJournal(through_decorator
                             ? static_cast<ControlJournal *>(&timing)
                             : &journal);
    std::vector<std::uint64_t> ids;
    const char *manifests[] = {
        "app=Cache anomaly=true period_ms=10 budget_mb=64 net=true "
        "loss=0.05",
        "app=Search2 period_ms=10 budget_mb=64 net=true loss=0.05"};
    for (int round = 0; round < 3; ++round) {
        for (const char *m : manifests)
            ids.push_back(master.apply(m));
        master.reconcile();
        journal.maybeSnapshot([&master] { return master.dumpState(); });
    }
    if (!through_decorator)
        return 0;
    std::map<std::uint64_t, double> charged = timing.perRequest();
    std::size_t uncharged = 0;
    for (std::uint64_t id : ids)
        if (charged[id] <= 0)
            ++uncharged;
    return uncharged;
}

}  // namespace

int
main(int argc, char **argv)
{
    fs::path root = argc > 1 ? argv[1] : "perfbench_selftest.tmp";
    fs::remove_all(root);
    journalStream(root / "direct", false);
    std::size_t uncharged = journalStream(root / "timed", true);
    DirImage direct = readDir(root / "direct");
    DirImage timed = readDir(root / "timed");
    fs::remove_all(root);

    int failures = 0;
    if (direct.empty() || direct != timed) {
        std::fprintf(stderr, "FAIL: journal directories differ (%zu vs "
                             "%zu files)\n",
                     direct.size(), timed.size());
        ++failures;
    }
    bool has_snapshot = false;
    for (const auto &[name, bytes] : direct)
        has_snapshot = has_snapshot || name.rfind("snap-", 0) == 0;
    if (!has_snapshot) {
        std::fputs("FAIL: the stream wrote no snapshot image\n", stderr);
        ++failures;
    }
    if (uncharged != 0) {
        std::fprintf(stderr, "FAIL: %zu requests charged no hook time\n",
                     uncharged);
        ++failures;
    }
    if (failures != 0)
        return 1;
    std::printf("PASS: %zu files byte-identical through TimingJournal\n",
                direct.size());
    return 0;
}
