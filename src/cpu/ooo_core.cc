#include "cpu/ooo_core.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "core/auth_policy.hh"
#include "isa/semantics.hh"

namespace acp::cpu
{

using core::gatesCommit;
using core::gatesFetch;
using core::gatesIssue;
using core::gatesWrite;
using core::verifies;

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::kRunning:           return "running";
      case StopReason::kHalted:            return "halted";
      case StopReason::kSecurityException: return "security_exception";
      case StopReason::kInstLimit:         return "inst_limit";
      case StopReason::kCycleLimit:        return "cycle_limit";
    }
    return "?";
}

/** Cycles without a commit before the no-progress panic fires. */
constexpr Cycle kProgressPanicCycles = 1000000;

namespace
{

/** Per-RUU-slot bit masks (ready set, parked loads). */
void
setBit(std::vector<std::uint64_t> &mask, unsigned slot)
{
    mask[slot >> 6] |= std::uint64_t(1) << (slot & 63);
}

void
clearBit(std::vector<std::uint64_t> &mask, unsigned slot)
{
    mask[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
}

} // namespace

OooCore::OooCore(const sim::SimConfig &cfg, secmem::MemHierarchy &hier,
                 Addr entry, unsigned client, const std::string &name)
    : cfg_(cfg), hier_(hier), client_(client),
      policy_(hier.ctrl().policyFor(client)), bpred_(cfg), regs_(32, 0),
      regTainted_(32, false), fetchPc_(entry), ruu_(cfg.ruuSize),
      renameMap_(32, -1), readyMask_((cfg.ruuSize + 63) / 64, 0),
      parkedMask_((cfg.ruuSize + 63) / 64, 0), stats_(name)
{
    completions_.reserve(2 * cfg.ruuSize);
    due_.reserve(cfg.ruuSize);
    stats_.addCounter("committed", &committed_);
    stats_.addCounter("fetched", &fetched_);
    stats_.addCounter("issued", &issued_);
    stats_.addCounter("branches", &branches_);
    stats_.addCounter("mispredicts", &mispredicts_);
    stats_.addCounter("loads_issued", &loadsIssued_);
    stats_.addCounter("stores_committed", &storesCommitted_);
    stats_.addCounter("load_forwards", &loadForwards_);
    stats_.addCounter("auth_commit_stalls", &authCommitStalls_);
    stats_.addCounter("store_release_stalls", &storeReleaseStalls_);
    stats_.addCounter("sb_full_stalls", &sbFullStalls_);
    stats_.addCounter("ruu_full_stalls", &ruuFullStalls_);
    stats_.addCounter("lsq_full_stalls", &lsqFullStalls_);
    stats_.addCounter("squashed", &squashedInsts_);
    stats_.addCounter("tainted_commits", &taintedCommits_);
    stats_.addCounter("tainted_store_drains", &taintedStoreDrains_);
    stats_.addCounter("cycles", &statCycles_);
    stats_.addCounter("commit_active_cycles", &commitActiveCycles_);
    for (unsigned i = 0; i < obs::kNumStallCauses; ++i)
        stats_.addCounter(std::string("stall.") +
                              obs::stallCauseName(obs::StallCause(i)),
                          &stallCounters_[i]);
    stats_.addDistribution("ruu_occupancy", &ruuOccupancy_);
    stats_.addDistribution("sb_occupancy", &sbOccupancy_);
}

OooCore::~OooCore() = default;

unsigned
OooCore::ruuIndex(unsigned pos) const
{
    // pos <= ruuCount_ <= ruuSize and ruuHead_ < ruuSize, so one
    // conditional subtract replaces the modulo on this hot path.
    unsigned idx = ruuHead_ + pos;
    if (idx >= cfg_.ruuSize)
        idx -= cfg_.ruuSize;
    return idx;
}

OooCore::RuuEntry &
OooCore::entryAt(unsigned pos)
{
    return ruu_[ruuIndex(pos)];
}

unsigned
OooCore::ruuPos(unsigned slot) const
{
    return slot >= ruuHead_ ? slot - ruuHead_
                            : slot + cfg_.ruuSize - ruuHead_;
}

unsigned
OooCore::nextReadyPos(unsigned pos) const
{
    // Bits are set only for occupied slots. Walking slots upward from
    // pos's slot walks positions upward until the ring wraps, so the
    // lowest set bit is the next ready position, unless it maps past
    // the occupied range (then it belongs to an older position and
    // no ready entry is left at or after pos).
    while (pos < ruuCount_) {
        unsigned slot = ruuIndex(pos);
        std::uint64_t bits = readyMask_[slot >> 6] >> (slot & 63);
        if (bits)
            return std::min(pos + unsigned(__builtin_ctzll(bits)),
                            ruuCount_);
        unsigned next = (slot | 63) + 1; // next word's first slot
        if (next > cfg_.ruuSize)
            next = cfg_.ruuSize; // wrap to slot 0
        pos += next - slot;
    }
    return ruuCount_;
}

void
OooCore::unparkLoads()
{
    for (std::size_t w = 0; w < parkedMask_.size(); ++w) {
        readyMask_[w] |= parkedMask_[w];
        parkedMask_[w] = 0;
    }
}

AuthSeq
OooCore::issueTagNow() const
{
    // Sample the LastRequest register at issue: the tag consulted by
    // the write gate and the fetch gate (Section 4.2.2/4.2.4).
    // Per-client: only requests this core posted move its tag.
    return verifies(policy_)
               ? hier_.ctrl().authEngine().lastArrivedBy(cycle_, client_)
               : kNoAuthSeq;
}

bool
OooCore::verifiedOk(AuthSeq seq) const
{
    const secmem::AuthEngine &eng =
        const_cast<secmem::MemHierarchy &>(hier_).ctrl().authEngine();
    if (seq == kNoAuthSeq)
        return true;
    // Only this core's own failed requests poison its gates: a
    // neighbour core fetching a tampered line raises *its* exception,
    // not ours (per-client failure view).
    if (eng.anyFailure(client_) && seq >= eng.firstFailedSeq(client_))
        return false; // a failed (or later) request never verifies
    return eng.verifiedBy(seq, cycle_);
}

void
OooCore::raiseSecurityException(bool precise)
{
    stopReason_ = StopReason::kSecurityException;
    exceptionPrecise_ = precise;
    exceptionCycle_ = cycle_;
}

bool
OooCore::checkEngineFailure()
{
    if (!verifies(policy_))
        return false;
    const secmem::AuthEngine &eng = hier_.ctrl().authEngine();
    if (!eng.anyFailure(client_) || cycle_ < eng.firstFailureCycle(client_))
        return false;
    raiseSecurityException(gatesCommit(policy_) || gatesIssue(policy_));
    return true;
}

void
OooCore::rebuildRenameMap()
{
    std::fill(renameMap_.begin(), renameMap_.end(), -1);
    for (unsigned pos = 0; pos < ruuCount_; ++pos) {
        RuuEntry &entry = entryAt(pos);
        if (entry.writesRd)
            renameMap_[entry.dest] = int(ruuIndex(pos));
    }
}

void
OooCore::squashAfter(unsigned pos)
{
    while (ruuCount_ > pos + 1) {
        unsigned slot = ruuIndex(ruuCount_ - 1);
        RuuEntry &entry = ruu_[slot];
        if (entry.isLoad || entry.isStore)
            --lsqUsed_;
        // Youngest first: a waiting operand's node is the head of its
        // producer's chain (every younger registration is already
        // gone; operand 1 registered after operand 0).
        for (int op = 1; op >= 0; --op) {
            if (entry.opReady[op])
                continue;
            RuuEntry &producer = ruu_[entry.opProducer[op]];
            if (producer.depHead != int(slot) * 2 + op)
                acp_panic("%s: squash found a dependent chain out of order",
                          stats_.name().c_str());
            producer.depHead = entry.depNext[op];
        }
        clearBit(readyMask_, slot);
        clearBit(parkedMask_, slot);
        entry.valid = false;
        ++squashedInsts_;
        --ruuCount_;
    }
    const RuuEntry &keep = entryAt(pos);
    lastStore_ = keep.isStore ? int(ruuIndex(pos)) : keep.prevStore;
    lastStoreSeq_ = keep.isStore ? keep.seq : keep.prevStoreSeq;
    rebuildRenameMap();
    fetchQueue_.clear();
}

void
OooCore::wakeDependents(RuuEntry &producer)
{
    for (int node = producer.depHead; node >= 0;) {
        unsigned slot = unsigned(node) >> 1;
        unsigned op = unsigned(node) & 1;
        RuuEntry &consumer = ruu_[slot];
        node = consumer.depNext[op];
        consumer.opValue[op] = producer.result;
        consumer.tainted = consumer.tainted || producer.tainted;
        consumer.opReady[op] = true;
        if (consumer.opReady[0] && consumer.opReady[1])
            setBit(readyMask_, slot);
    }
    producer.depHead = -1;
}

bool
OooCore::tryIssueMemOp(RuuEntry &entry)
{
    unsigned bytes = entry.memBytes;
    Addr addr = entry.opValue[0] + std::uint64_t(entry.inst.imm);
    entry.memAddr = addr;

    if (entry.isStore) {
        entry.issueTag = issueTagNow();
        entry.storeValue = entry.opValue[1];
        entry.readyAt = cycle_ + 1;
        return true;
    }

    // Load: memory disambiguation against older stores, walked from
    // the youngest older store to the oldest along the prevStore
    // chain; it ends at the first store that has committed (every
    // older one has too). The first unissued or overlapping store
    // decides.
    int prior = entry.prevStore;
    std::uint64_t prior_seq = entry.prevStoreSeq;
    while (prior >= 0) {
        const RuuEntry &older = ruu_[prior];
        if (!older.valid || older.seq != prior_seq)
            break;
        if (!older.issued)
            return false; // unknown store address: conservative stall
        Addr s_begin = older.memAddr;
        Addr s_end = older.memAddr + older.memBytes;
        Addr l_begin = addr;
        Addr l_end = addr + bytes;
        if (l_end <= s_begin || s_end <= l_begin) {
            prior = older.prevStore; // disjoint
            prior_seq = older.prevStoreSeq;
            continue;
        }
        if (s_begin <= l_begin && l_end <= s_end) {
            // Full containment: forward from the store queue.
            entry.issueTag = issueTagNow();
            std::uint64_t raw = older.storeValue >>
                                (8 * (l_begin - s_begin));
            if (bytes < 8)
                raw &= (1ULL << (8 * bytes)) - 1;
            entry.result = isa::adjustLoadValue(entry.inst.op, raw);
            entry.readyAt = cycle_ + 2;
            entry.dataReadyAt = entry.readyAt; // on-chip forward
            entry.dataSeq = kNoAuthSeq; // data never left the chip
            entry.tainted = entry.tainted || older.tainted;
            ++loadForwards_;
            return true;
        }
        return false; // partial overlap: wait for the store to drain
    }

    // Post-commit store buffer (youngest first).
    for (auto it = storeBuffer_.rbegin(); it != storeBuffer_.rend(); ++it) {
        if (it->isOut)
            continue;
        Addr s_begin = it->addr;
        Addr s_end = it->addr + it->bytes;
        if (addr + bytes <= s_begin || s_end <= addr)
            continue;
        if (s_begin <= addr && addr + bytes <= s_end) {
            entry.issueTag = issueTagNow();
            std::uint64_t raw = it->value >> (8 * (addr - s_begin));
            if (bytes < 8)
                raw &= (1ULL << (8 * bytes)) - 1;
            entry.result = isa::adjustLoadValue(entry.inst.op, raw);
            entry.readyAt = cycle_ + 2;
            entry.dataReadyAt = entry.readyAt;
            entry.dataSeq = kNoAuthSeq;
            entry.tainted = entry.tainted || it->tainted;
            ++loadForwards_;
            return true;
        }
        return false; // partial overlap with a pending release
    }

    // Real memory access: this is where a speculative load's address
    // reaches the front-side bus (the side channel). The fetch gate
    // reads the same LastRequest register the issue tag samples.
    entry.issueTag = issueTagNow();
    AuthSeq gate = gatesFetch(policy_) ? entry.issueTag : kNoAuthSeq;
    std::uint64_t raw = 0;
    mem::Txn access = hier_.readTimed(addr, bytes, cycle_ + 1, gate, raw,
                                      entry.seq, client_);
    entry.result = isa::adjustLoadValue(entry.inst.op, raw);
    entry.readyAt = access.ready;
    entry.dataReadyAt = access.dataReady;
    entry.busReqAt = access.busRequestAt;
    entry.busGrantAt = access.busGrantAt;
    entry.dataSeq = access.authSeq;
    entry.tainted = entry.tainted ||
                    hier_.ctrl().authEngine().requestFailed(access.authSeq);
    ++loadsIssued_;
    return true;
}

void
OooCore::stageComplete()
{
    due_.clear();
    while (!completions_.empty() && completions_.front().readyAt <= cycle_) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<>());
        const Completion &c = completions_.back();
        if (ruu_[c.slot].valid && ruu_[c.slot].seq == c.seq)
            due_.push_back(c);
        completions_.pop_back();
    }
    // Age order: the oldest mispredict squashes everything after it.
    std::sort(due_.begin(), due_.end(),
              [](const Completion &a, const Completion &b) {
                  return a.seq < b.seq;
              });
    for (const Completion &c : due_) {
        RuuEntry &entry = ruu_[c.slot];
        entry.completed = true;
        progress_ = true;
        wakeDependents(entry);

        if (!entry.isControl)
            continue;

        ++branches_;
        bpred_.update(entry.pc, entry.inst, entry.taken,
                      entry.taken ? entry.actualNext : 0);
        Addr predicted_next = entry.predTaken
                                  ? entry.predTarget
                                  : entry.pc + isa::kInstrBytes;
        if (predicted_next != entry.actualNext) {
            entry.mispredict = true;
            ++mispredicts_;
            std::uint64_t squashed_before = squashedInsts_.value();
            squashAfter(ruuPos(c.slot));
            ACP_TRACE(trace_, obs::TraceEventKind::kSquash, cycle_,
                      entry.pc, squashedInsts_.value() - squashed_before);
            fetchPc_ = entry.actualNext;
            fetchStallUntil_ = cycle_ + cfg_.mispredictPenalty;
            fetchStallCause_ = obs::StallCause::kSquash;
            break; // everything younger is gone
        }
    }
}

void
OooCore::stageCommit()
{
    for (unsigned done = 0; done < cfg_.commitWidth && ruuCount_ > 0;
         ++done) {
        RuuEntry &entry = entryAt(0);
        if (!entry.issued || !entry.completed || entry.readyAt > cycle_)
            break;

        if (gatesCommit(policy_)) {
            AuthSeq gate = std::max(entry.fetchSeq, entry.dataSeq);
            if (!verifiedOk(gate)) {
                ++authCommitStalls_;
                if (done == 0) {
                    commitBlock_ = CommitBlock::kAuthGate;
                    lastAuthBlockSeq_ = gate;
                }
                break;
            }
            if (gate != kNoAuthSeq && gate == lastAuthBlockSeq_) {
                // The tag the head was stalling on has verified.
                ACP_TRACE(trace_, obs::TraceEventKind::kGateRelease,
                          cycle_, gate, entry.pc);
                lastAuthBlockSeq_ = kNoAuthSeq;
            }
        }

        if (entry.isStore || entry.isOut) {
            if (storeBuffer_.size() >= cfg_.storeBufferSize) {
                ++sbFullStalls_;
                if (done == 0)
                    commitBlock_ = CommitBlock::kSbFull;
                break;
            }
            StoreBufEntry sb;
            sb.tag = entry.issueTag;
            sb.tainted = entry.tainted;
            if (entry.isOut) {
                sb.isOut = true;
                sb.value = entry.storeValue;
                sb.outPort = entry.outPort;
            } else {
                sb.addr = entry.memAddr;
                sb.bytes = entry.memBytes;
                sb.value = entry.storeValue;
                ++storesCommitted_;
            }
            storeBuffer_.push_back(sb);
        }

        if (entry.writesRd) {
            regs_[entry.dest] = entry.result;
            regTainted_[entry.dest] = entry.tainted;
        }

        if (shadow_) {
            StepInfo ref = shadow_->step();
            if (ref.pc != entry.pc)
                acp_panic("cosim PC mismatch: core 0x%llx shadow 0x%llx "
                          "(%s)",
                          (unsigned long long)entry.pc,
                          (unsigned long long)ref.pc,
                          isa::disassemble(entry.inst, entry.pc).c_str());
            if (entry.writesRd &&
                (!ref.wroteRd || ref.rdValue != entry.result))
                acp_panic("cosim value mismatch @0x%llx %s: core %llx "
                          "shadow %llx",
                          (unsigned long long)entry.pc,
                          isa::disassemble(entry.inst, entry.pc).c_str(),
                          (unsigned long long)entry.result,
                          (unsigned long long)ref.rdValue);
            if (entry.isStore &&
                (ref.memAddr != entry.memAddr ||
                 ref.storeValue != entry.storeValue))
                acp_panic("cosim store mismatch @0x%llx",
                          (unsigned long long)entry.pc);
        }

        if (traceOut_ && traceRemaining_ > 0) {
            --traceRemaining_;
            std::fprintf(traceOut_, "%10llu  0x%08llx  %-28s",
                         (unsigned long long)cycle_,
                         (unsigned long long)entry.pc,
                         isa::disassemble(entry.inst, entry.pc).c_str());
            if (entry.writesRd)
                std::fprintf(traceOut_, " x%u=0x%llx", unsigned(entry.dest),
                             (unsigned long long)entry.result);
            if (entry.isStore)
                std::fprintf(traceOut_, " [0x%llx]<=0x%llx",
                             (unsigned long long)entry.memAddr,
                             (unsigned long long)entry.storeValue);
            if (entry.tainted)
                std::fprintf(traceOut_, " TAINTED");
            std::fputc('\n', traceOut_);
        }

        if (entry.tainted)
            ++taintedCommits_;
        ACP_TRACE(trace_, obs::TraceEventKind::kCommit, cycle_, entry.pc,
                  entry.seq);
        progress_ = true;
        ++committed_;
        ++commitsThisCycle_;
        lastCommitCycle_ = cycle_;

        if (entry.writesRd && renameMap_[entry.dest] == int(ruuHead_))
            renameMap_[entry.dest] = -1;
        if (entry.isLoad || entry.isStore)
            --lsqUsed_;
        bool halt = entry.isHalt;
        entry.valid = false;
        if (++ruuHead_ >= cfg_.ruuSize)
            ruuHead_ = 0;
        --ruuCount_;

        if (halt) {
            stopReason_ = StopReason::kHalted;
            break;
        }
    }
}

void
OooCore::stageStoreBufferDrain()
{
    if (storeBuffer_.empty())
        return;
    StoreBufEntry &sb = storeBuffer_.front();
    if (gatesWrite(policy_) && !verifiedOk(sb.tag)) {
        ++storeReleaseStalls_;
        drainBlocked_ = true;
        return;
    }
    progress_ = true;
    if (sb.tainted)
        ++taintedStoreDrains_;
    if (sb.isOut) {
        // Value leaves the chip through an output port: observable.
        hier_.ctrl().busTrace().record(cycle_, sb.value,
                                       mem::BusTxnKind::kIoOut, client_);
    } else {
        AuthSeq gate =
            gatesFetch(policy_)
                ? hier_.ctrl().authEngine().lastArrivedBy(cycle_, client_)
                : kNoAuthSeq;
        hier_.writeTimed(sb.addr, sb.bytes, sb.value, cycle_, gate,
                         /*origin=*/0, client_);
    }
    storeBuffer_.pop_front();
    unparkLoads(); // a partial overlap may have drained away
}

void
OooCore::stageIssue()
{
    unsigned slots = cfg_.issueWidth;
    unsigned int_alu = cfg_.intAluUnits;
    unsigned int_mul = cfg_.intMulUnits;
    unsigned mem_ports = cfg_.memPorts;
    unsigned fp_add = cfg_.fpAddUnits;
    unsigned fp_mul = cfg_.fpMulUnits;

    // Oldest first over the ready set only. A ready entry refused a
    // unit stays ready; a load blocked by disambiguation is parked.
    for (unsigned pos = nextReadyPos(0); pos < ruuCount_ && slots > 0;
         pos = nextReadyPos(pos + 1)) {
        unsigned slot = ruuIndex(pos);
        RuuEntry &entry = ruu_[slot];
        switch (entry.fu) {
          case isa::FuClass::kIntAlu:
            if (int_alu == 0)
                continue;
            --int_alu;
            break;
          case isa::FuClass::kIntMul:
            if (int_mul == 0)
                continue;
            --int_mul;
            break;
          case isa::FuClass::kIntDiv:
            if (intDivFreeAt_ > cycle_)
                continue;
            intDivFreeAt_ = cycle_ + entry.latency;
            break;
          case isa::FuClass::kFpAdd:
            if (fp_add == 0)
                continue;
            --fp_add;
            break;
          case isa::FuClass::kFpMul:
            if (fp_mul == 0)
                continue;
            --fp_mul;
            break;
          case isa::FuClass::kFpDiv:
            if (fpDivFreeAt_ > cycle_)
                continue;
            fpDivFreeAt_ = cycle_ + entry.latency;
            break;
          case isa::FuClass::kMemPort:
            if (mem_ports == 0)
                continue;
            break;
          case isa::FuClass::kNone:
            break;
        }

        clearBit(readyMask_, slot);
        if (entry.fu == isa::FuClass::kMemPort) {
            if (!tryIssueMemOp(entry)) {
                setBit(parkedMask_, slot);
                continue;
            }
            --mem_ports;
        } else {
            entry.issueTag = issueTagNow();
            isa::ExecResult res = isa::execute(entry.inst, entry.opValue[0],
                                               entry.opValue[1], entry.pc);
            entry.result = res.value;
            entry.readyAt = cycle_ + entry.latency;
            if (entry.isControl) {
                entry.taken = res.taken;
                entry.actualNext = res.taken
                                       ? res.target
                                       : entry.pc + isa::kInstrBytes;
            }
            if (entry.isOut) {
                entry.storeValue = res.storeValue;
                entry.outPort = res.outPort;
            }
        }

        entry.issued = true;
        completions_.push_back({entry.readyAt, entry.seq, slot});
        std::push_heap(completions_.begin(), completions_.end(),
                      std::greater<>());
        if (entry.isStore)
            unparkLoads(); // its address is known now
        progress_ = true;
        ACP_TRACE(trace_, obs::TraceEventKind::kIssue, cycle_, entry.pc,
                  entry.seq);
        ++issued_;
        --slots;
    }
}

void
OooCore::stageDispatch()
{
    for (unsigned done = 0; done < cfg_.decodeWidth && !fetchQueue_.empty();
         ++done) {
        if (ruuCount_ >= cfg_.ruuSize) {
            ++ruuFullStalls_;
            dispatchBlock_ = DispatchBlock::kRuuFull;
            break;
        }
        FetchedInst &fetched_inst = fetchQueue_.front();
        const isa::OpInfo &oi = fetched_inst.inst.info();
        bool is_mem = oi.isLoad || oi.isStore;
        if (is_mem && lsqUsed_ >= cfg_.lsqSize) {
            ++lsqFullStalls_;
            dispatchBlock_ = DispatchBlock::kLsqFull;
            break;
        }

        unsigned slot = ruuIndex(ruuCount_);
        RuuEntry &entry = ruu_[slot];
        entry = RuuEntry{};
        entry.valid = true;
        entry.seq = nextSeq_++;
        entry.pc = fetched_inst.pc;
        entry.inst = fetched_inst.inst;
        entry.fu = oi.fu;
        entry.latency = oi.latency;
        entry.dest = entry.inst.destReg();
        entry.memBytes = isa::memAccessBytes(entry.inst.op);
        entry.fetchSeq = fetched_inst.fetchSeq;
        entry.tainted =
            hier_.ctrl().authEngine().requestFailed(entry.fetchSeq);
        entry.predTaken = fetched_inst.predTaken;
        entry.predTarget = fetched_inst.predTarget;
        entry.isLoad = oi.isLoad;
        entry.isStore = oi.isStore;
        entry.isControl = oi.isBranch || oi.isJump;
        entry.isOut = (entry.inst.op == isa::Op::kOut);
        entry.isHalt = (entry.inst.op == isa::Op::kHalt);
        entry.writesRd = (entry.dest != 0);
        entry.prevStore = lastStore_;
        entry.prevStoreSeq = lastStoreSeq_;
        if (entry.isStore) {
            lastStore_ = int(slot);
            lastStoreSeq_ = entry.seq;
        }

        // Rename: a register with no in-flight writer reads the
        // regfile; a completed writer hands over its result; anything
        // else waits in the writer's dependent chain.
        const unsigned src[2] = {entry.inst.srcReg1(), entry.inst.srcReg2()};
        for (unsigned op = 0; op < 2; ++op) {
            int prod = src[op] != 0 ? renameMap_[src[op]] : -1;
            if (prod < 0) {
                entry.opValue[op] = regs_[src[op]];
                entry.opReady[op] = true;
                continue;
            }
            RuuEntry &producer = ruu_[prod];
            if (producer.completed) {
                entry.opValue[op] = producer.result;
                entry.tainted = entry.tainted || producer.tainted;
                entry.opReady[op] = true;
                continue;
            }
            entry.opProducer[op] = prod;
            entry.depNext[op] = producer.depHead;
            producer.depHead = int(slot) * 2 + int(op);
        }
        if (entry.opReady[0] && entry.opReady[1])
            setBit(readyMask_, slot);
        if (entry.writesRd)
            renameMap_[entry.dest] = int(slot);

        ++ruuCount_;
        progress_ = true;
        if (is_mem)
            ++lsqUsed_;
        fetchQueue_.pop_front();
    }
}

void
OooCore::stageFetch()
{
    if (cycle_ < fetchStallUntil_)
        return;

    unsigned budget = cfg_.fetchWidth;
    const unsigned queue_cap = 2 * cfg_.fetchWidth;
    const Addr line_mask = cfg_.l1i.lineBytes - 1;

    while (budget > 0 && fetchQueue_.size() < queue_cap) {
        // Even a stalling probe mutates the hierarchy (caches, MSHRs,
        // bus, engine): every loop entry is progress.
        progress_ = true;
        AuthSeq gate =
            gatesFetch(policy_)
                ? hier_.ctrl().authEngine().lastArrivedBy(cycle_, client_)
                : kNoAuthSeq;
        std::uint32_t word = 0;
        mem::Txn access =
            hier_.fetchTimed(fetchPc_, cycle_, gate, word, client_);
        // L1I hits are pipelined: data arriving within the hit latency
        // feeds this cycle's fetch group; anything slower stalls.
        if (access.ready > cycle_ + cfg_.l1i.hitLatency) {
            fetchStallUntil_ = access.ready;
            // Attribute the upcoming frontend bubble: fetch-gate bus
            // delay, else plain miss latency; under authen-then-issue
            // the tail past data arrival is a verification wait
            // (classifyStall splits on fetchDataReadyAt_).
            fetchStallCause_ = access.gateDelayed
                                   ? obs::StallCause::kFetchGate
                                   : obs::StallCause::kMemFetch;
            fetchDataReadyAt_ = access.dataReady;
            break;
        }

        FetchedInst fetched_inst;
        ACP_TRACE(trace_, obs::TraceEventKind::kFetch, cycle_, fetchPc_);
        fetched_inst.pc = fetchPc_;
        fetched_inst.inst = isa::decode(word);
        fetched_inst.fetchSeq = access.authSeq;
        const isa::OpInfo &oi = fetched_inst.inst.info();
        if (oi.isBranch || oi.isJump) {
            Prediction pred = bpred_.predict(fetchPc_, fetched_inst.inst);
            fetched_inst.predTaken = pred.taken;
            fetched_inst.predTarget = pred.target;
        }
        fetchQueue_.push_back(fetched_inst);
        ++fetched_;
        --budget;

        if (fetched_inst.predTaken) {
            fetchPc_ = fetched_inst.predTarget;
            break; // taken control flow ends the fetch group
        }
        fetchPc_ += isa::kInstrBytes;
        if ((fetchPc_ & line_mask) == 0)
            break; // I-cache line boundary ends the fetch group
    }
}

obs::StallCause
OooCore::classifyStall()
{
    // The commit stage already knows why its head couldn't retire.
    if (commitBlock_ == CommitBlock::kAuthGate)
        return obs::StallCause::kAuthCommit;
    if (commitBlock_ == CommitBlock::kSbFull)
        return obs::StallCause::kSbFull;

    if (ruuCount_ == 0) {
        // Nothing in flight: the frontend owns the bubble.
        if (cycle_ < fetchStallUntil_) {
            if (fetchStallCause_ == obs::StallCause::kSquash ||
                fetchStallCause_ == obs::StallCause::kFetchGate)
                return fetchStallCause_;
            // Memory-driven fetch stall: once the line is physically
            // on-chip any remaining wait is the issue-gate's
            // verification tail, not memory latency.
            if (cycle_ >= fetchDataReadyAt_)
                return obs::StallCause::kAuthIssue;
            return obs::StallCause::kMemFetch;
        }
        return obs::StallCause::kFrontend;
    }

    RuuEntry &head = entryAt(0);
    if (!head.issued)
        return obs::StallCause::kIssueWait;
    if (head.isLoad && head.readyAt > cycle_) {
        // In-flight load at the head: charge verification only once
        // the data itself has arrived (authen-then-issue holds
        // usability until the verdict).
        if (cycle_ >= head.dataReadyAt)
            return obs::StallCause::kAuthIssue;
        // While the line transfer sits in the shared-bus arbiter's
        // queue, the wait is contention, not intrinsic memory latency.
        if (head.busGrantAt != kCycleNever &&
            head.busGrantAt > head.busReqAt && cycle_ >= head.busReqAt &&
            cycle_ < head.busGrantAt)
            return obs::StallCause::kBusWait;
        return obs::StallCause::kMemData;
    }
    return obs::StallCause::kExec;
}

void
OooCore::accountCycle()
{
    ++statCycles_;
    if (commitsThisCycle_ > 0) {
        ++commitActiveCycles_;
    } else {
        // Latch the cause: if this tick turns out idle, the skipped
        // window replays it (classification is constant between wake
        // boundaries — every branch cycle-compare is in the wake set).
        idleCause_ = classifyStall();
        ++stallCounters_[unsigned(idleCause_)];
    }
    ruuOccupancy_.sample(ruuCount_);
    sbOccupancy_.sample(storeBuffer_.size());
    if (cycle_ >= nextSampleCycle())
        feedSamplers(cycle_);
}

Cycle
OooCore::nextSampleCycle() const
{
    Cycle next = kCycleNever;
    for (const obs::IntervalSampler *s : samplers_)
        if (s)
            next = std::min(next, s->nextSampleCycle());
    return next;
}

void
OooCore::feedSamplers(Cycle cycle)
{
    obs::StallArray stalls = stallCycles();
    std::uint64_t txns = hier_.txnsRetired();
    for (obs::IntervalSampler *s : samplers_)
        if (s)
            s->tick(cycle, committed_.value(), stalls, txns);
}

obs::StallArray
OooCore::stallCycles() const
{
    obs::StallArray out{};
    for (unsigned i = 0; i < obs::kNumStallCauses; ++i)
        out[i] = stallCounters_[i].value();
    return out;
}

bool
OooCore::tick()
{
    if (stopReason_ != StopReason::kRunning)
        return false;
    if (checkEngineFailure())
        return false;

    progress_ = false;
    drainBlocked_ = false;
    dispatchBlock_ = DispatchBlock::kNone;
    stageComplete();
    commitsThisCycle_ = 0;
    commitBlock_ = CommitBlock::kNone;
    stageCommit();
    // Charge the cycle right after commit, before the younger stages
    // mutate the RUU: attribution sees the machine state the commit
    // stage actually faced.
    accountCycle();
    if (stopReason_ != StopReason::kRunning) {
        ++cycle_;
        return false;
    }
    stageStoreBufferDrain();
    stageIssue();
    stageDispatch();
    stageFetch();
    ++cycle_;

    if (cycle_ - lastCommitCycle_ > kProgressPanicCycles) {
        const RuuEntry *head = ruuCount_ ? &entryAt(0) : nullptr;
        acp_panic("%s: no commit progress for 1M cycles "
                  "(pc 0x%llx cycle %llu ruu %u commit-block %u "
                  "dispatch-block %u head{valid %d seq %llu pc 0x%llx "
                  "issued %d done %d readyAt %llu load %d store %d "
                  "op0 %d op1 %d prod0 %d prod1 %d})",
                  stats_.name().c_str(), (unsigned long long)fetchPc_,
                  (unsigned long long)cycle_, ruuCount_,
                  unsigned(commitBlock_), unsigned(dispatchBlock_),
                  head ? head->valid : 0,
                  head ? (unsigned long long)head->seq : 0ull,
                  head ? (unsigned long long)head->pc : 0ull,
                  head ? head->issued : 0, head ? head->completed : 0,
                  head ? (unsigned long long)head->readyAt : 0ull,
                  head ? head->isLoad : 0, head ? head->isStore : 0,
                  head ? head->opReady[0] : 0, head ? head->opReady[1] : 0,
                  head ? head->opProducer[0] : -2,
                  head ? head->opProducer[1] : -2);
    }
    return true;
}

void
OooCore::beginRun(std::uint64_t max_insts, std::uint64_t max_cycles)
{
    runInstLimit_ = instsCommitted() + max_insts;
    runCycleLimit_ = cycle_ + max_cycles;
    runLimitHit_ = StopReason::kRunning;
}

StopReason
OooCore::runReason() const
{
    // Limits end the window without setting stopReason_ — the core
    // stays kRunning and a later window can continue.
    return runLimitHit_ != StopReason::kRunning ? runLimitHit_
                                                : stopReason_;
}

Cycle
OooCore::nextWakeCycle()
{
    // Only boundaries at or after cycle_ count: a compare whose cycle
    // has already passed is settled and cannot flip again while the
    // machine is frozen, so skipping past it is exactly what the
    // polled loop does. A boundary at exactly cycle_ yields wake ==
    // cycle_, i.e. "the very next tick is not idle — do not skip".
    Cycle wake = kCycleNever;
    auto consider = [&wake, this](Cycle c) {
        if (c >= cycle_ && c < wake)
            wake = c;
    };

    // The no-progress panic bounds every idle window: the tick at
    // lastCommitCycle_ + 1M must really run so the panic fires on the
    // same cycle as under the polled loop.
    consider(lastCommitCycle_ + kProgressPanicCycles);

    const secmem::AuthEngine &eng = hier_.ctrl().authEngine();

    // Pending completions (also the head-commit / operand / issue
    // unblock events): the completion queue's earliest live record.
    // This tick's stageComplete popped everything due by the tick, so
    // every record left is due at or after cycle_.
    while (!completions_.empty()) {
        const Completion &top = completions_.front();
        if (ruu_[top.slot].valid && ruu_[top.slot].seq == top.seq) {
            consider(top.readyAt);
            break;
        }
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<>());
        completions_.pop_back(); // squashed
    }

    if (ruuCount_ > 0) {
        const RuuEntry &head = ruu_[ruuIndex(0)];
        if (head.issued && head.completed && gatesCommit(policy_)) {
            // Commit gate: the verdict lands at the engine's done
            // cycle (a failed tag never opens the gate, but then the
            // engine-failure wake below ends the run).
            AuthSeq gate = std::max(head.fetchSeq, head.dataSeq);
            if (gate != kNoAuthSeq)
                consider(eng.doneCycle(gate));
        }
        if (head.issued && !head.completed && head.isLoad) {
            // Stall-attribution boundaries of an in-flight head load
            // (classifyStall branches on these compares).
            if (head.dataReadyAt != kCycleNever)
                consider(head.dataReadyAt);
            if (head.busReqAt != kCycleNever)
                consider(head.busReqAt);
            if (head.busGrantAt != kCycleNever)
                consider(head.busGrantAt);
        }
    }

    // Store-release gate on the buffer head.
    if (!storeBuffer_.empty() && gatesWrite(policy_))
        consider(eng.doneCycle(storeBuffer_.front().tag));

    // Frontend restart + its attribution boundary (kMemFetch ->
    // kAuthIssue split at data arrival). Stale values from a finished
    // stall are in the past, which consider() filters.
    consider(fetchStallUntil_);
    consider(fetchDataReadyAt_);

    // Unpipelined dividers (free-at == cycle_ means issuable now).
    consider(intDivFreeAt_);
    consider(fpDivFreeAt_);

    // A posted verification failure raises the security exception the
    // moment its verdict is due (only this core's own failures).
    if (verifies(policy_) && eng.anyFailure(client_))
        consider(eng.firstFailureCycle(client_));

    // The panic bound always qualifies (cycle_ <= lastCommitCycle_ +
    // 1M while running), so wake is never kCycleNever; the guard is
    // belt-and-braces.
    return wake == kCycleNever ? cycle_ : wake;
}

void
OooCore::accountIdleCycles(std::uint64_t n)
{
    // Replays, for each of the n skipped cycles, exactly the counter
    // and sampler side effects the polled loop's idle tick performs.
    // Machine state is frozen across the window (no completion, no
    // commit, no drain, no issue, no dispatch, no hierarchy access),
    // so each cycle charges the same latched causes and the counts
    // batch arithmetically.
    bool auth_commit = commitBlock_ == CommitBlock::kAuthGate;
    bool sb_full = commitBlock_ == CommitBlock::kSbFull;
    bool ruu_full = dispatchBlock_ == DispatchBlock::kRuuFull;
    bool lsq_full = dispatchBlock_ == DispatchBlock::kLsqFull;

    const Cycle end = cycle_ + n;
    for (Cycle at = cycle_; at < end;) {
        // Cut the window just after the earliest sample cycle of any
        // sampler, so the sample sees the totals of every cycle up to
        // and including it, as a per-cycle feed would have shown them.
        Cycle next = nextSampleCycle();
        bool sample = next < end;
        Cycle stop = sample ? std::max(next, at) + 1 : end;
        std::uint64_t k = stop - at;

        if (auth_commit)
            authCommitStalls_ += k;
        else if (sb_full)
            sbFullStalls_ += k;
        statCycles_ += k;
        stallCounters_[unsigned(idleCause_)] += k;
        ruuOccupancy_.sample(ruuCount_, k);
        sbOccupancy_.sample(storeBuffer_.size(), k);
        if (drainBlocked_)
            storeReleaseStalls_ += k;
        if (ruu_full)
            ruuFullStalls_ += k;
        else if (lsq_full)
            lsqFullStalls_ += k;
        if (sample)
            feedSamplers(stop - 1);
        at = stop;
    }
}

Cycle
OooCore::step()
{
    if (stopReason_ != StopReason::kRunning)
        return kCycleNever;
    if (instsCommitted() >= runInstLimit_) {
        runLimitHit_ = StopReason::kInstLimit;
        return kCycleNever;
    }
    if (cycle_ >= runCycleLimit_) {
        runLimitHit_ = StopReason::kCycleLimit;
        return kCycleNever;
    }

    tick();
    if (stopReason_ != StopReason::kRunning)
        return kCycleNever;
    if (progress_)
        return cycle_; // active: simulate the very next cycle

    // Idle: nothing can change before the next wake boundary. Account
    // the skipped window and jump.
    Cycle wake = nextWakeCycle();
    if (wake > runCycleLimit_)
        wake = runCycleLimit_; // accounting stops at the limit
    if (wake > cycle_) {
        accountIdleCycles(wake - cycle_);
        cycle_ = wake;
    }
    return cycle_;
}

void
OooCore::traceCommits(std::FILE *out, std::uint64_t insts)
{
    traceOut_ = out;
    traceRemaining_ = insts;
}

} // namespace acp::cpu
