#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "phys/parameters_io.hpp"

namespace xring::phys {
namespace {

TEST(ParametersIo, RoundTrip) {
  Parameters p = Parameters::oring();
  p.loss.crossing_db = 0.123;
  p.crosstalk.crossing_db = -37.5;
  p.crosstalk.residue_filter = false;
  p.geometry.splitter_um = 33.0;

  std::stringstream buf;
  write_parameters(p, buf);
  const Parameters q = read_parameters(buf, Parameters::proton_plus());
  EXPECT_DOUBLE_EQ(q.loss.crossing_db, 0.123);
  EXPECT_DOUBLE_EQ(q.crosstalk.crossing_db, -37.5);
  EXPECT_FALSE(q.crosstalk.residue_filter);
  EXPECT_DOUBLE_EQ(q.geometry.splitter_um, 33.0);
  EXPECT_DOUBLE_EQ(q.loss.drop_db, p.loss.drop_db);
}

TEST(ParametersIo, PartialFileKeepsBase) {
  std::istringstream in(
      "# only one change\n"
      "loss.drop_db = 1.25\n");
  const Parameters p = read_parameters(in, Parameters::oring());
  EXPECT_DOUBLE_EQ(p.loss.drop_db, 1.25);
  EXPECT_DOUBLE_EQ(p.loss.through_db, Parameters::oring().loss.through_db);
}

TEST(ParametersIo, CommentsAndWhitespaceTolerated) {
  std::istringstream in(
      "\n"
      "   # header comment\n"
      "  loss.bend_db   =   0.009   # trailing\n"
      "\n");
  const Parameters p = read_parameters(in);
  EXPECT_DOUBLE_EQ(p.loss.bend_db, 0.009);
}

TEST(ParametersIo, UnknownKeyRejected) {
  std::istringstream in("loss.tyop_db = 1\n");
  EXPECT_THROW(read_parameters(in), std::invalid_argument);
}

TEST(ParametersIo, MalformedLinesRejected) {
  {
    std::istringstream in("loss.drop_db 0.5\n");
    EXPECT_THROW(read_parameters(in), std::invalid_argument);
  }
  {
    std::istringstream in("loss.drop_db = banana\n");
    EXPECT_THROW(read_parameters(in), std::invalid_argument);
  }
}

/// The diagnostic read_parameters raises on `text`, or "" when it accepts.
std::string diagnostic(const std::string& text) {
  std::istringstream in(text);
  try {
    read_parameters(in);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParametersIo, TrailingTextAndNonFiniteValuesRejected) {
  EXPECT_EQ(diagnostic("loss.drop_db = 0.5abc\n"),
            "line 1: non-numeric value for 'loss.drop_db': '0.5abc'");
  EXPECT_EQ(diagnostic("# c\nloss.drop_db =\n"),
            "line 2: non-numeric value for 'loss.drop_db': ''");
  EXPECT_EQ(diagnostic("loss.drop_db = 0.5 0.6\n"),
            "line 1: non-numeric value for 'loss.drop_db': '0.5 0.6'");
  for (const char* v : {"inf", "-inf", "nan", "1e999"}) {
    EXPECT_EQ(diagnostic(std::string("loss.bend_db = ") + v),
              std::string("line 1: non-finite value for 'loss.bend_db': '") +
                  v + "'");
  }
}

TEST(ParametersIo, OutOfRangeValuesRejected) {
  EXPECT_EQ(diagnostic("loss.laser_wall_plug_efficiency = 0\n"),
            "line 1: 'loss.laser_wall_plug_efficiency' must lie in (0, 1], "
            "got 0");
  EXPECT_NE(diagnostic("loss.laser_wall_plug_efficiency = 1.5"), "");
  EXPECT_NE(diagnostic("loss.laser_wall_plug_efficiency = -0.1"), "");
  EXPECT_EQ(diagnostic("\nloss.propagation_db_per_mm = -0.01\n"),
            "line 2: 'loss.propagation_db_per_mm' must not be negative, got "
            "-0.01");
  EXPECT_NE(diagnostic("loss.crossing_db = -1"), "");
  EXPECT_EQ(diagnostic("crosstalk.crossing_db = 40"),
            "line 1: 'crosstalk.crossing_db' must not be positive, got 40");
  EXPECT_NE(diagnostic("crosstalk.mrr_through_db = 3"), "");
  EXPECT_NE(diagnostic("crosstalk.mrr_drop_residue_db = 0.1"), "");
  EXPECT_EQ(diagnostic("crosstalk.noise_floor_mw = -1e-12"),
            "line 1: 'crosstalk.noise_floor_mw' must not be negative, got "
            "-1e-12");
  EXPECT_EQ(diagnostic("geometry.modulator_um = 0"),
            "line 1: 'geometry.modulator_um' must be positive, got 0");
  EXPECT_NE(diagnostic("geometry.splitter_um = -20"), "");

  // The range edges and the sign-free keys are accepted.
  EXPECT_EQ(diagnostic("loss.laser_wall_plug_efficiency = 1\n"
                       "loss.crossing_db = 0\n"
                       "loss.receiver_sensitivity_dbm = -30\n"
                       "crosstalk.crossing_db = 0\n"
                       "crosstalk.noise_floor_mw = 0\n"
                       "crosstalk.snr_warn_db = -5\n"),
            "");
}

TEST(ParametersIo, BooleanFilterRejectsOtherWords) {
  EXPECT_EQ(diagnostic("crosstalk.residue_filter = ture"),
            "line 1: expected true, false, 1 or 0 for "
            "'crosstalk.residue_filter', got 'ture'");
  EXPECT_NE(diagnostic("crosstalk.residue_filter = yes"), "");
  EXPECT_NE(diagnostic("crosstalk.residue_filter ="), "");
}

TEST(ParametersIo, BooleanFilterParses) {
  for (const char* v : {"true", "1"}) {
    std::istringstream in(std::string("crosstalk.residue_filter = ") + v);
    EXPECT_TRUE(read_parameters(in).crosstalk.residue_filter);
  }
  for (const char* v : {"false", "0"}) {
    std::istringstream in(std::string("crosstalk.residue_filter = ") + v);
    EXPECT_FALSE(read_parameters(in).crosstalk.residue_filter);
  }
}

TEST(ParametersIo, MissingFileThrows) {
  EXPECT_THROW(load_parameters("/does/not/exist.params"), std::runtime_error);
}

}  // namespace
}  // namespace xring::phys
