// Tests of the runtime invariant checker (src/check/invariant.hpp): handler
// install/restore, the failure funnel, build-conditional macro behaviour,
// and a whole-trial smoke run that must not trip a single invariant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "core/config.hpp"
#include "core/secure_localization.hpp"

namespace {

using namespace sld;

// Recording handler: InvariantHandler is a plain function pointer, so the
// sink is a file-local global reset per test.
std::vector<check::InvariantViolation>* g_recorded = nullptr;

void recording_handler(const check::InvariantViolation& violation) {
  if (g_recorded != nullptr) g_recorded->push_back(violation);
}

class RecordViolations {
 public:
  RecordViolations() : scoped_(&recording_handler) { g_recorded = &violations_; }
  ~RecordViolations() { g_recorded = nullptr; }
  const std::vector<check::InvariantViolation>& violations() const {
    return violations_;
  }

 private:
  std::vector<check::InvariantViolation> violations_;
  check::ScopedInvariantHandler scoped_;
};

TEST(Invariants, FailureFunnelReachesInstalledHandler) {
  const std::uint64_t before = check::invariant_failure_count();
  {
    RecordViolations rec;
    check::invariant_failed("file.cpp", 42, "x == y", "x=1 y=2");
    ASSERT_EQ(rec.violations().size(), 1u);
    EXPECT_STREQ(rec.violations()[0].file, "file.cpp");
    EXPECT_EQ(rec.violations()[0].line, 42);
    EXPECT_STREQ(rec.violations()[0].condition, "x == y");
    EXPECT_EQ(rec.violations()[0].message, "x=1 y=2");
  }
  EXPECT_EQ(check::invariant_failure_count(), before + 1);
}

TEST(Invariants, ScopedHandlerRestoresPrevious) {
  auto* const original = check::set_invariant_handler(&recording_handler);
  {
    check::ScopedInvariantHandler inner(nullptr);  // nullptr => default
  }
  // After the scope, our handler must be back.
  EXPECT_EQ(check::set_invariant_handler(original), &recording_handler);
}

TEST(Invariants, MacroFiresExactlyWhenBuildEnablesIt) {
  RecordViolations rec;
  const int x = 3;
  SLD_INVARIANT(x == 4, "x=" << x);
  if (check::invariants_enabled()) {
    ASSERT_EQ(rec.violations().size(), 1u);
    EXPECT_EQ(rec.violations()[0].message, "x=3");
    EXPECT_NE(std::string(rec.violations()[0].condition).find("x == 4"),
              std::string::npos);
  } else {
    EXPECT_TRUE(rec.violations().empty());
  }
}

TEST(Invariants, DisabledMacroEvaluatesNothing) {
  // The condition is only evaluated in checking builds: x advances to 4
  // there (and 4 == 4 passes), and stays untouched in Release.
  RecordViolations rec;
  int x = 3;
  SLD_INVARIANT(++x == 4, "x=" << x);
  if (check::invariants_enabled())
    EXPECT_EQ(x, 4);
  else
    EXPECT_EQ(x, 3);
  EXPECT_TRUE(rec.violations().empty());
}

TEST(Invariants, PassingConditionNeverReports) {
  RecordViolations rec;
  const std::uint64_t before = check::invariant_failure_count();
  SLD_INVARIANT(1 + 1 == 2, "arithmetic broke");
  EXPECT_TRUE(rec.violations().empty());
  EXPECT_EQ(check::invariant_failure_count(), before);
}

TEST(Invariants, FullTrialSmokeRunTripsNoInvariant) {
  // A small but complete trial — probing, detection, revocation, faults,
  // ARQ — exercises every instrumented subsystem. Zero violations expected
  // in any build type (the macro just can't fire in Release).
  const std::uint64_t before = check::invariant_failure_count();
  core::SystemConfig config;
  config.deployment.total_nodes = 120;
  config.deployment.beacon_count = 24;
  config.deployment.malicious_beacon_count = 4;
  config.deployment.field = util::Rect::square(400.0);
  config.rtt_calibration_samples = 500;
  config.faults.loss_probability = 0.1;
  config.faults.duplicate_probability = 0.05;
  config.faults.corruption_probability = 0.05;
  config.arq.enabled = true;
  config.alert_loss_probability = 0.1;
  config.seed = 7;
  core::SecureLocalizationSystem system(config);
  const core::TrialSummary summary = system.run();
  EXPECT_GT(summary.benign_beacons, 0u);
  EXPECT_EQ(check::invariant_failure_count(), before);
}

TEST(Invariants, HighLossArqExhaustionTripsNoInvariant) {
  // Loss heavy enough that many probes/queries/alerts burn through every
  // retry. The retries-bounded invariants in the ARQ paths must hold even
  // when every retransmission budget is exhausted.
  const std::uint64_t before = check::invariant_failure_count();
  core::SystemConfig config;
  config.deployment.total_nodes = 80;
  config.deployment.beacon_count = 16;
  config.deployment.malicious_beacon_count = 3;
  config.deployment.field = util::Rect::square(350.0);
  config.rtt_calibration_samples = 500;
  config.faults.loss_probability = 0.5;
  config.arq.enabled = true;
  config.alert_loss_probability = 0.5;
  config.seed = 11;
  core::SecureLocalizationSystem system(config);
  const core::TrialSummary summary = system.run();
  EXPECT_GT(summary.channel.losses, 0u);
  EXPECT_EQ(check::invariant_failure_count(), before);
}

}  // namespace
