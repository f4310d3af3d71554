#include "hwtrace/tracer.h"

#include "util/logging.h"

namespace exist {

TracerControlResult
CoreTracer::configure(const TracerConfig &cfg)
{
    TracerControlResult res;
    if (enabled()) {
        // Architecturally illegal; a real driver would #GP. Callers are
        // expected to disable first, so this is a caller bug.
        res.ok = false;
        res.cost = MsrFile::kWrmsrCost;
        return res;
    }

    std::uint64_t ctl = 0;
    if (cfg.branch_en)
        ctl |= rtit_ctl::kBranchEn;
    if (cfg.cyc_en)
        ctl |= rtit_ctl::kCycEn;
    if (cfg.tsc_en)
        ctl |= rtit_ctl::kTscEn;
    if (cfg.user)
        ctl |= rtit_ctl::kUser;
    if (cfg.os)
        ctl |= rtit_ctl::kOs;
    if (cfg.cr3_filter)
        ctl |= rtit_ctl::kCr3Filter;
    ctl |= rtit_ctl::kToPA;

    auto w1 = msrs_.write(RtitMsr::kCtl, ctl);
    res.cost += w1.cost;
    auto w2 = msrs_.write(RtitMsr::kCr3Match, cfg.cr3_match);
    res.cost += w2.cost;
    auto w3 = msrs_.write(RtitMsr::kOutputBase, 0x1000);
    res.cost += w3.cost;
    auto w4 = msrs_.write(RtitMsr::kOutputMaskPtrs, 0);
    res.cost += w4.cost;
    res.ok = w1.ok && w2.ok && w3.ok && w4.ok;

    if (cfg.external_output != nullptr) {
        EXIST_ASSERT(cfg.external_output->configured(),
                     "external output buffer not configured");
        out_ = cfg.external_output;
    } else {
        out_ = nullptr;
        topa_.configure(cfg.topa, cfg.topa_ring);
    }
    writer_.setOutput(&output());
    writer_.setCycEnabled(cfg.cyc_en);
    writer_.setTscEnabled(cfg.tsc_en);
    if (cache_bypass_ != cfg.cache_bypass && cost_epoch_)
        ++*cost_epoch_;
    cache_bypass_ = cfg.cache_bypass;
    return res;
}

TracerControlResult
CoreTracer::enable(Cycles now, std::uint64_t cr3, std::uint64_t ip)
{
    TracerControlResult res;
    EXIST_ASSERT(output().configured(), "enable before ToPA configuration");
    auto w = msrs_.write(RtitMsr::kCtl,
                         msrs_.read(RtitMsr::kCtl) | rtit_ctl::kTraceEn);
    res.cost = w.cost;
    res.ok = w.ok;
    writer_.resetState(now);
    updatePacketEn(cr3, true, ip, now);
    return res;
}

TracerControlResult
CoreTracer::disable(Cycles now)
{
    TracerControlResult res;
    if (packet_en_) {
        writer_.flushTnt(now);
        writer_.pgd(now);
        setPacketEn(false);
    }
    auto w = msrs_.write(RtitMsr::kCtl,
                         msrs_.read(RtitMsr::kCtl) & ~rtit_ctl::kTraceEn);
    res.cost = w.cost;
    res.ok = w.ok;
    return res;
}

bool
CoreTracer::contextMatch(std::uint64_t cr3, bool user) const
{
    if (user && !msrs_.userTracing())
        return false;
    if (!user && !msrs_.osTracing())
        return false;
    if (msrs_.cr3FilterEnabled() && cr3 != msrs_.cr3Match())
        return false;
    return true;
}

void
CoreTracer::updatePacketEn(std::uint64_t cr3, bool user, std::uint64_t ip,
                           Cycles now)
{
    bool want = enabled() && !stopped() && contextMatch(cr3, user);
    if (want == packet_en_)
        return;
    if (want) {
        writer_.pge(ip, now);
    } else {
        writer_.flushTnt(now);
        writer_.pgd(now);
    }
    setPacketEn(want);
    collectWriterEvents();
}

void
CoreTracer::setPacketEn(bool on)
{
    if (on == packet_en_)
        return;
    packet_en_ = on;
    if (cost_epoch_)
        ++*cost_epoch_;
}

void
CoreTracer::onBranch(const BranchRecord &rec, const ProgramBinary &prog,
                     Cycles now, std::uint64_t cr3, bool user)
{
    if (!enabled() || stopped())
        return;
    if (!packet_en_) {
        // The filter may match now (e.g. first branch after sched-in of
        // the matched process without an explicit switch callback).
        updatePacketEn(cr3, user, prog.block(rec.source_block).address,
                       now);
        if (!packet_en_)
            return;
    }
    if (!msrs_.branchEnabled())
        return;

    switch (rec.kind) {
      case BranchKind::kConditional:
        writer_.tnt(rec.taken, now);
        break;
      case BranchKind::kDirectJump:
      case BranchKind::kDirectCall:
        // Statically resolvable: no packet (decoder follows binary).
        break;
      case BranchKind::kIndirectJump:
      case BranchKind::kIndirectCall:
      case BranchKind::kReturn:
        writer_.tip(prog.block(rec.target_block).address, now);
        break;
      case BranchKind::kSyscall:
        // User-only tracing: leaving for the kernel disables packets.
        writer_.flushTnt(now);
        writer_.pgd(now);
        setPacketEn(false);
        break;
    }
    // Execution now stands at the branch target: the next PSB's FUP
    // must point there for mid-stream decoder sync.
    writer_.setCurrentIp(prog.block(rec.target_block).address);
    collectWriterEvents();
}

void
CoreTracer::onContextSwitch(std::uint64_t cr3, std::uint64_t ip,
                            Cycles now)
{
    if (!enabled())
        return;
    updatePacketEn(cr3, true, ip, now);
}

void
CoreTracer::onSyscallEntry(Cycles now)
{
    if (!packet_en_)
        return;
    writer_.flushTnt(now);
    writer_.pgd(now);
    setPacketEn(false);
    collectWriterEvents();
}

void
CoreTracer::onPtWrite(std::uint64_t value, Cycles now)
{
    if (!packet_en_)
        return;
    writer_.ptw(value, now);
    collectWriterEvents();
}

void
CoreTracer::onUserResume(std::uint64_t cr3, std::uint64_t ip, Cycles now)
{
    if (!enabled() || stopped())
        return;
    // Returning from the kernel: re-evaluate PacketEn (it was dropped
    // at syscall entry for a matched process).
    if (!packet_en_)
        updatePacketEn(cr3, true, ip, now);
}

void
CoreTracer::collectWriterEvents()
{
    WriterEvents e = writer_.takeEvents();
    pending_pmis_ += e.pmis;
    if (e.stopped) {
        msrs_.setStopped(true);
        setPacketEn(false);
    }
}

int
CoreTracer::takePmis()
{
    int n = pending_pmis_;
    pending_pmis_ = 0;
    return n;
}

}  // namespace exist
