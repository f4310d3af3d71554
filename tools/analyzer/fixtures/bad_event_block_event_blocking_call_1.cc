// analyzer-virtual-path: src/fixture/event_block_run_slot.cc
// The kernel fires a core's run slot by calling runCore from its own
// loop, not through a schedule{,After} lambda. A sleep reachable only
// from runCore still stalls every later event of the node.
namespace exist {

class Kernel {
 public:
  void runUntil(long until) {
    while (cursor_ < until)
      runCore(0);
  }

 private:
  void runCore(int core) { retire(core); }

  void retire(int core) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    cursor_ = cursor_ + core + 1;
  }

  long cursor_ = 0;
};

}  // namespace exist
