#include "dqmc/checkpoint.h"

#include <gtest/gtest.h>

#include <sstream>

#include "linalg/norms.h"
#include "testing/test_utils.h"

namespace dqmc::core {
namespace {

using hubbard::Lattice;
using hubbard::ModelParams;

ModelParams params() {
  ModelParams p;
  p.u = 4.0;
  p.beta = 2.0;
  p.slices = 8;
  return p;
}

EngineConfig config() {
  EngineConfig c;
  c.cluster_size = 4;
  return c;
}

TEST(Checkpoint, ResumedEngineContinuesBitExactly) {
  Lattice lat(4, 4);
  DqmcEngine original(lat, params(), config(), 101);
  original.initialize();
  original.sweep();
  original.sweep();

  std::stringstream buffer;
  save_checkpoint(buffer, original);

  // Fresh engine with a DIFFERENT seed: everything must come from the
  // checkpoint.
  DqmcEngine restored(lat, params(), config(), 999);
  load_checkpoint(buffer, restored);

  for (int s = 0; s < 2; ++s) {
    SweepStats s1 = original.sweep();
    SweepStats s2 = restored.sweep();
    EXPECT_EQ(s1.accepted, s2.accepted) << "sweep " << s;
  }
  EXPECT_MATRIX_NEAR(original.greens(hubbard::Spin::Up),
                     restored.greens(hubbard::Spin::Up), 0.0);
  for (idx l = 0; l < 8; ++l)
    for (idx i = 0; i < 16; ++i)
      ASSERT_EQ(original.field()(l, i), restored.field()(l, i));
}

TEST(Checkpoint, RoundTripPreservesFieldAndRng) {
  Lattice lat(2, 2);
  DqmcEngine engine(lat, params(), config(), 7);
  engine.initialize();
  engine.sweep();

  std::stringstream buffer;
  save_checkpoint(buffer, engine);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("dqmcpp-checkpoint v3"), std::string::npos);
  EXPECT_NE(text.find("slices 8"), std::string::npos);
  EXPECT_NE(text.find("sites 4"), std::string::npos);

  DqmcEngine restored(lat, params(), config(), 0);
  std::stringstream replay(text);
  load_checkpoint(replay, restored);
  std::uint64_t s1[4], s2[4];
  engine.rng().state(s1);
  restored.rng().state(s2);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(s1[i], s2[i]);
}

TEST(Checkpoint, DimensionMismatchThrows) {
  Lattice small(2, 2);
  DqmcEngine engine(small, params(), config(), 1);
  engine.initialize();
  std::stringstream buffer;
  save_checkpoint(buffer, engine);

  Lattice big(4, 4);
  DqmcEngine other(big, params(), config(), 1);
  EXPECT_THROW(load_checkpoint(buffer, other), InvalidArgument);
}

TEST(Checkpoint, GarbageInputThrows) {
  Lattice lat(2, 2);
  DqmcEngine engine(lat, params(), config(), 1);
  std::stringstream garbage("not a checkpoint at all");
  EXPECT_THROW(load_checkpoint(garbage, engine), InvalidArgument);
}

TEST(Checkpoint, FileRoundTrip) {
  Lattice lat(2, 2);
  DqmcEngine engine(lat, params(), config(), 55);
  engine.initialize();
  engine.sweep();
  const std::string path = ::testing::TempDir() + "/dqmc_ckpt_test.txt";
  save_checkpoint_file(path, engine);

  DqmcEngine restored(lat, params(), config(), 0);
  load_checkpoint_file(path, restored);
  SweepStats a = engine.sweep();
  SweepStats b = restored.sweep();
  EXPECT_EQ(a.accepted, b.accepted);
}

}  // namespace
}  // namespace dqmc::core
