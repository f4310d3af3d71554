// analyzer-virtual-path: src/runtime/fixture_raw_lock.cc
// Self-test fixture: std synchronisation primitives outside the
// annotated wrappers must trip raw-locking — they are invisible to
// Clang's thread-safety analysis and to the lock-order validator.
#include <mutex>

int
counterBump(int &counter)
{
    static std::mutex mu;
    std::lock_guard<std::mutex> lk(mu);
    return ++counter;
}
