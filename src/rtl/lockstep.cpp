#include "rtl/lockstep.hpp"

#include <sstream>

#include "obs/instrument.hpp"
#include "util/require.hpp"

namespace fbt {
namespace {

/// SessionObserver that advances the RTL one clock per behavioral cycle and
/// compares the probe nets.
class LockstepObserver : public SessionObserver {
 public:
  LockstepObserver(const RtlDesign& design, const RtlProbes& probes,
                   const LockstepConfig& config, LockstepReport& report)
      : sim_(design), config_(config), report_(&report) {
    const auto resolve = [&design](const std::string& name) {
      const NodeId id = design.node(name);
      require(id != kNoNode, "run_lockstep",
              "probe net '" + name + "' not found in the elaborated design");
      return id;
    };
    for (const std::string& name : probes.mode) mode_.push_back(resolve(name));
    done_ = resolve(probes.done);
    capture_ = resolve(probes.capture);
    for (const std::string& name : probes.pi) pi_.push_back(resolve(name));
    for (const std::string& name : probes.state) {
      state_.push_back(resolve(name));
    }
    for (const std::string& name : probes.misr) misr_.push_back(resolve(name));
  }

  void on_cycle(const SessionCycle& cycle) override {
    ++report_->cycles_checked;
    // Pre-edge: the controller's mode and strobes during this cycle.
    static constexpr BistMode kOrder[5] = {
        BistMode::kCircuitInit, BistMode::kSeedLoad, BistMode::kShiftRegInit,
        BistMode::kApply, BistMode::kCircularShift};
    for (std::size_t m = 0; m < 5; ++m) {
      const bool expect = cycle.mode == kOrder[m];
      check(cycle, sim_.value(mode_[m]) == (expect ? 1 : 0), "mode one-hot",
            m);
    }
    check(cycle, sim_.value(done_) == 0, "done low during session", 0);
    check(cycle, sim_.value(capture_) == (cycle.capture ? 1 : 0),
          "capture strobe", 0);
    if (cycle.mode == BistMode::kApply) {
      for (std::size_t i = 0; i < pi_.size(); ++i) {
        check(cycle, sim_.value(pi_[i]) == cycle.pi[i], "TPG primary input",
              i);
      }
    }
    sim_.step();
    // Post-edge: the captured state and the MISR register.
    if (cycle.mode == BistMode::kApply) {
      for (std::size_t i = 0; i < state_.size(); ++i) {
        check(cycle, sim_.value(state_[i]) == cycle.state[i], "CUT state bit",
              i);
      }
    }
    check(cycle, misr_value() == cycle.misr, "MISR register", 0);
  }

  std::uint32_t misr_value() const {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < misr_.size(); ++i) {
      if (sim_.value(misr_[i])) v |= 1u << i;
    }
    return v;
  }

  std::uint8_t done_value() const { return sim_.value(done_); }

 private:
  void check(const SessionCycle& cycle, bool ok, const char* what,
             std::size_t index) {
    if (ok) return;
    ++report_->mismatches;
    if (report_->details.size() < config_.max_detail) {
      std::ostringstream msg;
      msg << "cycle " << cycle.index << " (" << bist_mode_name(cycle.mode)
          << ", seq " << cycle.sequence << ", seg " << cycle.segment
          << "): " << what << " [" << index << "] diverges";
      report_->details.push_back(msg.str());
    }
  }

  RtlSim sim_;
  LockstepConfig config_;
  LockstepReport* report_;
  std::vector<NodeId> mode_;
  NodeId done_ = kNoNode;
  NodeId capture_ = kNoNode;
  std::vector<NodeId> pi_;
  std::vector<NodeId> state_;
  std::vector<NodeId> misr_;
};

}  // namespace

LockstepReport run_lockstep(const Netlist& cut, const FunctionalBistResult& plan,
                            const ScanChains& scan,
                            const SessionConfig& session,
                            const EmittedRtl& rtl, const RtlDesign& design,
                            const LockstepConfig& config) {
  FBT_OBS_PHASE("rtl");
  LockstepReport report;
  LockstepObserver observer(design, rtl.probes, config, report);
  const SessionReport golden = run_bist_session(
      cut, plan, scan, session, kNoNode, true, &observer);
  report.behavioral_signature = golden.signature;
  report.rtl_signature = observer.misr_value();
  report.done_asserted = observer.done_value() != 0;
  if (!report.done_asserted) {
    report.details.push_back("done not asserted after the final cycle");
    ++report.mismatches;
  }
  if (report.rtl_signature != golden.signature) {
    std::ostringstream msg;
    msg << "final signature: rtl 0x" << std::hex << report.rtl_signature
        << " vs behavioral 0x" << golden.signature;
    report.details.push_back(msg.str());
    ++report.mismatches;
  }
  report.ok = report.mismatches == 0;
  return report;
}

LockstepReport check_bist_rtl(const Netlist& cut,
                              const FunctionalBistResult& plan,
                              const ScanChains& scan,
                              const SessionConfig& session,
                              const LockstepConfig& config) {
  const EmittedRtl rtl = emit_bist_rtl(cut, plan, scan, session);
  const RtlDesign design = elaborate_verilog(rtl.verilog, rtl.top_name);
  return run_lockstep(cut, plan, scan, session, rtl, design, config);
}

}  // namespace fbt
