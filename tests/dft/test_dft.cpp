#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dft/basis.hpp"
#include "dft/gaussian.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "numeric/blas.hpp"
#include "numeric/cholesky.hpp"

namespace df = omenx::dft;
namespace lt = omenx::lattice;
namespace nm = omenx::numeric;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {
lt::Structure tiny_wire(idx cells) { return lt::make_nanowire(0.8, cells); }
}  // namespace

TEST(Gaussian, SelfOverlapIsOne) {
  df::Orbital s{0, 20.0, -10.0, df::AngularMomentum::kS, 0};
  df::Orbital p{0, 20.0, -5.0, df::AngularMomentum::kP, 1};
  lt::Vec3 r{0.3, -0.2, 0.7};
  EXPECT_NEAR(df::gaussian_overlap(s, r, s, r), 1.0, 1e-13);
  EXPECT_NEAR(df::gaussian_overlap(p, r, p, r), 1.0, 1e-13);
}

TEST(Gaussian, OverlapSymmetry) {
  df::Orbital a{0, 12.0, -10.0, df::AngularMomentum::kS, 0};
  df::Orbital b{1, 30.0, -6.0, df::AngularMomentum::kP, 2};
  lt::Vec3 ra{0.0, 0.0, 0.0}, rb{0.2, 0.1, -0.3};
  EXPECT_NEAR(df::gaussian_overlap(a, ra, b, rb),
              df::gaussian_overlap(b, rb, a, ra), 1e-13);
}

TEST(Gaussian, OverlapDecaysWithDistance) {
  df::Orbital a{0, 12.0, -10.0, df::AngularMomentum::kS, 0};
  lt::Vec3 r0{0.0, 0.0, 0.0};
  double prev = 1.0;
  for (double d = 0.1; d < 1.2; d += 0.1) {
    const double ov = df::gaussian_overlap(a, r0, a, {d, 0.0, 0.0});
    EXPECT_LT(ov, prev);
    EXPECT_GT(ov, 0.0);
    prev = ov;
  }
}

TEST(Gaussian, OrthogonalPComponentsVanish) {
  // p_x at A vs p_y at B displaced along z only: overlap must vanish.
  df::Orbital px{0, 15.0, -5.0, df::AngularMomentum::kP, 0};
  df::Orbital py{1, 15.0, -5.0, df::AngularMomentum::kP, 1};
  EXPECT_NEAR(df::gaussian_overlap(px, {0, 0, 0}, py, {0, 0, 0.4}), 0.0, 1e-14);
}

TEST(Gaussian, PSOverlapAntisymmetricInDisplacement) {
  df::Orbital p{0, 15.0, -5.0, df::AngularMomentum::kP, 0};
  df::Orbital s{1, 20.0, -10.0, df::AngularMomentum::kS, 0};
  const double plus = df::gaussian_overlap(p, {0, 0, 0}, s, {0.3, 0, 0});
  const double minus = df::gaussian_overlap(p, {0, 0, 0}, s, {-0.3, 0, 0});
  EXPECT_NEAR(plus, -minus, 1e-13);
  EXPECT_NE(plus, 0.0);
}

TEST(Basis, SiIs3SPWithTwelveOrbitals) {
  df::BasisLibrary lib(df::Functional::kLDA);
  EXPECT_EQ(lib.for_species(lt::Species::kSi).num_orbitals(), 12);
  EXPECT_EQ(lib.for_species(lt::Species::kLi).num_orbitals(), 1);
}

TEST(Basis, Hse06LiftsEmptyShells) {
  df::BasisLibrary lda(df::Functional::kLDA);
  df::BasisLibrary hse(df::Functional::kHSE06);
  const auto& sl = lda.for_species(lt::Species::kSi).shells;
  const auto& sh = hse.for_species(lt::Species::kSi).shells;
  ASSERT_EQ(sl.size(), sh.size());
  bool some_lifted = false;
  for (std::size_t i = 0; i < sl.size(); ++i) {
    EXPECT_GE(sh[i].energy, sl[i].energy);
    some_lifted |= sh[i].energy > sl[i].energy;
  }
  EXPECT_TRUE(some_lifted);
}

TEST(Basis, EnumerateOrbitalsOrderAndCount) {
  df::BasisLibrary lib;
  const auto wire = tiny_wire(2);
  const auto orbs = df::enumerate_orbitals(wire.cell_atoms, lib);
  EXPECT_EQ(static_cast<idx>(orbs.size()), wire.orbitals_per_cell());
  // Orbitals of one atom are contiguous.
  for (std::size_t i = 1; i < orbs.size(); ++i)
    EXPECT_LE(orbs[i - 1].atom, orbs[i].atom);
}

TEST(Hamiltonian, BlocksAreHermitianOnsite) {
  df::BasisLibrary lib;
  const auto wire = tiny_wire(2);
  const auto lead = df::build_lead_blocks(wire, lib);
  EXPECT_TRUE(nm::is_hermitian(lead.h[0], 1e-9));
  EXPECT_TRUE(nm::is_hermitian(lead.s[0], 1e-9));
  EXPECT_GE(lead.nbw(), 1);
}

TEST(Hamiltonian, OverlapDiagonalIsUnityPlusRidge) {
  df::BasisLibrary lib;
  df::BuildOptions opt;
  const auto lead = df::build_lead_blocks(tiny_wire(2), lib, opt);
  for (idx i = 0; i < lead.block_dim(); ++i)
    EXPECT_NEAR(lead.s[0](i, i).real(), 1.0 + opt.overlap_ridge, 1e-10);
}

TEST(Hamiltonian, FoldedOverlapIsPositiveDefinite) {
  df::BasisLibrary lib;
  const auto lead = df::build_lead_blocks(tiny_wire(2), lib);
  const auto folded = df::fold_lead(lead);
  EXPECT_TRUE(nm::is_hpd(folded.s00));
}

TEST(Hamiltonian, ZPeriodicStructureWithoutPeriodIsRejected) {
  // The transverse image count is cutoff / z_period: a z-periodic cell left
  // at the default z_period = 0 has no meaningful image sum, and must fail
  // loudly instead of overflowing the image range.
  df::BasisLibrary lib;
  lt::Structure s = tiny_wire(2);
  s.periodicity = lt::Periodicity::kZ;
  s.z_period = 0.0;
  EXPECT_THROW(df::build_lead_blocks(s, lib), std::invalid_argument);
  s.z_period = s.cell_length;
  EXPECT_NO_THROW(df::build_lead_blocks(s, lib));
}

TEST(Hamiltonian, DftHasFarMoreNonzerosThanTightBinding) {
  // The Fig. 3 statement: DFT basis blocks carry ~100x the non-zeros of a
  // tight-binding description of the same cell.
  df::BasisLibrary lib;
  const auto wire = lt::make_nanowire(1.4, 2);
  const auto dftb = df::build_lead_blocks(wire, lib);
  const auto tb = df::build_tb_lead_blocks(wire);
  idx nnz_dft = 0, nnz_tb = 0;
  for (const auto& b : dftb.h) nnz_dft += omenx::blockmat::count_nnz(b, 1e-8);
  for (const auto& b : tb.h) nnz_tb += omenx::blockmat::count_nnz(b, 1e-8);
  EXPECT_GT(nnz_dft, 20 * nnz_tb);
}

TEST(Hamiltonian, TbBlocksAreHermitianStructured) {
  const auto wire = tiny_wire(2);
  const auto tb = df::build_tb_lead_blocks(wire);
  EXPECT_TRUE(nm::is_hermitian(tb.h[0], 1e-9));
  EXPECT_EQ(tb.nbw(), 1);
  // Orthogonal basis: S0 = I, S1 = 0.
  EXPECT_LT(nm::max_abs_diff(tb.s[0], CMatrix::identity(tb.block_dim())),
            1e-12);
  EXPECT_LT(nm::max_abs(tb.s[1]), 1e-12);
}

TEST(Hamiltonian, DeviceAssemblyHermitianWithoutPotential) {
  df::BasisLibrary lib;
  const auto lead = df::build_lead_blocks(tiny_wire(2), lib);
  const idx fold = std::max<idx>(1, lead.nbw());
  const idx cells = 4 * fold;
  const std::vector<double> v(static_cast<std::size_t>(cells), 0.0);
  const auto dm = df::assemble_device(lead, cells, v);
  EXPECT_TRUE(dm.h.is_hermitian(1e-9));
  EXPECT_TRUE(dm.s.is_hermitian(1e-9));
  EXPECT_EQ(dm.h.dim(), lead.block_dim() * cells);
}

TEST(Hamiltonian, UniformPotentialShiftsSpectrumViaS) {
  // With V constant, H(V) = H(0) + V*S exactly.
  df::BasisLibrary lib;
  const auto lead = df::build_lead_blocks(tiny_wire(2), lib);
  const idx fold = std::max<idx>(1, lead.nbw());
  const idx cells = 4 * fold;
  const std::vector<double> v0(static_cast<std::size_t>(cells), 0.0);
  const std::vector<double> v1(static_cast<std::size_t>(cells), 0.35);
  const auto d0 = df::assemble_device(lead, cells, v0);
  const auto d1 = df::assemble_device(lead, cells, v1);
  const CMatrix expected = d0.h.to_dense() + d0.s.to_dense() * cplx{0.35};
  EXPECT_LT(nm::max_abs_diff(d1.h.to_dense(), expected), 1e-10);
}

TEST(Hamiltonian, DeviceCellCountMustDivideByFold) {
  df::BasisLibrary lib;
  const auto lead = df::build_lead_blocks(tiny_wire(2), lib);
  if (lead.nbw() >= 2) {
    const std::vector<double> v(5, 0.0);
    EXPECT_THROW(df::assemble_device(lead, 5, v), std::invalid_argument);
  }
}

TEST(Hamiltonian, KTransverseChangesUtbBlocksButKeepsHermiticity) {
  df::BasisLibrary lib;
  const auto utb = lt::make_utb(1.0, 2);
  df::BuildOptions o0;
  df::BuildOptions o1;
  o1.k_transverse = 0.8;
  const auto b0 = df::build_lead_blocks(utb, lib, o0);
  const auto b1 = df::build_lead_blocks(utb, lib, o1);
  EXPECT_GT(nm::max_abs_diff(b0.h[0], b1.h[0]), 1e-6);
  EXPECT_TRUE(nm::is_hermitian(b1.h[0], 1e-9));
  EXPECT_TRUE(nm::is_hermitian(b1.s[0], 1e-9));
}

TEST(Hamiltonian, OrbitalToAtomMap) {
  df::BasisLibrary lib;
  const auto wire = tiny_wire(2);
  const auto map = df::orbital_to_atom(wire, lib);
  EXPECT_EQ(static_cast<idx>(map.size()), wire.orbitals_per_cell());
  EXPECT_EQ(map.front(), 0);
  EXPECT_EQ(map.back(), wire.atoms_per_cell() - 1);
}

TEST(Hamiltonian, CutoffControlsBandwidth) {
  df::BasisLibrary lib;
  df::BuildOptions narrow;
  narrow.cutoff_nm = 0.5;
  df::BuildOptions wide;
  wide.cutoff_nm = 1.4;
  const auto wire = tiny_wire(2);
  const auto bn = df::build_lead_blocks(wire, lib, narrow);
  const auto bw = df::build_lead_blocks(wire, lib, wide);
  EXPECT_LT(bn.nbw(), bw.nbw());
}
