// analyzer-virtual-path: src/obs/fixture_waitfree_emit.cc
// The legal shape of the span-emission hot path: atomics only, no
// mutex, no blocking primitive anywhere reachable.  The collector
// (snapshot) may take the kObs dump lock — it is not an emit entry
// point and is never rooted by the span-hot-path pass.
namespace exist {
namespace obs {

class WaitFreePlane {
 public:
  void instant(const char *name, unsigned long corr) {
    unsigned long slot = cursor_.load();
    names_[slot & 7] = name;
    corrs_[slot & 7] = corr;
    cursor_.store(slot + 1);
  }

  unsigned long snapshot() {
    MutexLock lk(dump_mu_);
    return cursor_.load();
  }

 private:
  Mutex dump_mu_{LockRank::kObs, "fixture.obs.dump"};
  std::atomic<unsigned long> cursor_{0};
  const char *names_[8] = {};
  unsigned long corrs_[8] = {};
};

}  // namespace obs
}  // namespace exist
