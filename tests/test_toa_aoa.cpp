#include <gtest/gtest.h>

#include <cmath>

#include "ranging/aoa.hpp"
#include "ranging/toa.hpp"
#include "util/rng.hpp"

namespace sld {
namespace {

// --- ToA -------------------------------------------------------------

TEST(Toa, ErrorWithinBound) {
  ranging::ToaRangingModel model;
  util::Rng rng(1);
  const double bound = model.max_error_ft();
  EXPECT_NEAR(bound, 3.93, 0.05);  // 4 ns of sync error ~ 3.9 ft
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform(0.0, 150.0);
    EXPECT_LE(std::abs(model.measure(d, rng) - d), bound + 1e-9);
  }
}

TEST(Toa, ManipulationShiftsDistance) {
  ranging::ToaRangingModel model;
  util::Rng rng(2);
  // +100 ns of timestamp manipulation ~ +98 ft.
  const double m = model.measure_manipulated(50.0, 100.0, rng);
  EXPECT_GT(m, 140.0);
  EXPECT_LT(m, 155.0);
}

TEST(Toa, NonNegativeAndValidated) {
  ranging::ToaRangingModel model;
  util::Rng rng(3);
  EXPECT_GE(model.measure_manipulated(1.0, -1000.0, rng), 0.0);
  EXPECT_THROW(model.measure(-1.0, rng), std::invalid_argument);
  ranging::ToaConfig bad;
  bad.max_sync_error_ns = -1.0;
  EXPECT_THROW(ranging::ToaRangingModel{bad}, std::invalid_argument);
}

// --- AoA -------------------------------------------------------------

TEST(Aoa, NormalizeAngleFoldsIntoRange) {
  EXPECT_NEAR(ranging::normalize_angle(3.0 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(ranging::normalize_angle(-3.0 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(ranging::normalize_angle(0.5), 0.5, 1e-12);
}

TEST(Aoa, TrueBearingCardinalDirections) {
  const util::Vec2 o{0, 0};
  EXPECT_NEAR(ranging::true_bearing(o, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(ranging::true_bearing(o, {0, 1}), M_PI / 2, 1e-12);
  EXPECT_NEAR(std::abs(ranging::true_bearing(o, {-1, 0})), M_PI, 1e-12);
  EXPECT_NEAR(ranging::true_bearing(o, {0, -1}), -M_PI / 2, 1e-12);
}

TEST(Aoa, AngularDistanceWrapsCorrectly) {
  EXPECT_NEAR(ranging::angular_distance(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(ranging::angular_distance(M_PI - 0.05, -M_PI + 0.05), 0.1,
              1e-12);
  EXPECT_NEAR(ranging::angular_distance(1.0, 1.0), 0.0, 1e-12);
}

TEST(Aoa, MeasurementWithinBound) {
  ranging::AoaModel model;
  util::Rng rng(4);
  const util::Vec2 rx{100, 100};
  for (int i = 0; i < 5000; ++i) {
    const util::Vec2 tx{rx.x + rng.uniform(-150, 150),
                        rx.y + rng.uniform(-150, 150)};
    const double measured = model.measure_bearing(rx, tx, rng);
    EXPECT_LE(ranging::angular_distance(measured,
                                        ranging::true_bearing(rx, tx)),
              model.config().max_error_rad + 1e-12);
  }
}

TEST(Aoa, ConfigValidation) {
  ranging::AoaConfig bad;
  bad.max_error_rad = -0.1;
  EXPECT_THROW(ranging::AoaModel{bad}, std::invalid_argument);
  bad.max_error_rad = 4.0;
  EXPECT_THROW(ranging::AoaModel{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace sld
