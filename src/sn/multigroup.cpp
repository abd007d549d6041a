#include "sn/multigroup.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "support/check.hpp"

namespace jsweep::sn {

MultigroupXs::MultigroupXs(int groups, std::int64_t cells)
    : groups_(groups), cells_(cells) {
  JSWEEP_CHECK(groups >= 1 && cells >= 1);
  sigma_t_.assign(static_cast<std::size_t>(cells) * groups_, 0.0);
  source_.assign(static_cast<std::size_t>(cells) * groups_, 0.0);
  sigma_s_.assign(static_cast<std::size_t>(cells) * groups_ * groups_, 0.0);
}

CellXs MultigroupXs::group_view(int g) const {
  JSWEEP_CHECK(g >= 0 && g < groups_);
  CellXs xs;
  xs.sigma_t.resize(static_cast<std::size_t>(cells_));
  xs.sigma_s.resize(static_cast<std::size_t>(cells_));
  xs.source.resize(static_cast<std::size_t>(cells_));
  for (std::int64_t c = 0; c < cells_; ++c) {
    xs.sigma_t[static_cast<std::size_t>(c)] = sigma_t(g, c);
    xs.sigma_s[static_cast<std::size_t>(c)] = sigma_s(g, g, c);
    // The external part of group g's source is filled per outer iteration
    // by solve_multigroup; group_view carries only the material source.
    xs.source[static_cast<std::size_t>(c)] = source(g, c);
  }
  return xs;
}

bool MultigroupXs::has_upscatter() const {
  for (std::int64_t c = 0; c < cells_; ++c)
    for (int from = 0; from < groups_; ++from)
      for (int to = 0; to < from; ++to)
        if (sigma_s(from, to, c) != 0.0) return true;
  return false;
}

void MultigroupXs::validate() const {
  for (std::int64_t c = 0; c < cells_; ++c) {
    for (int g = 0; g < groups_; ++g) {
      const double st = sigma_t(g, c);
      JSWEEP_CHECK_MSG(std::isfinite(st) && st >= 0.0,
                       "σ_t[" << g << "] = " << st << " at cell " << c);
      const double q = source(g, c);
      JSWEEP_CHECK_MSG(std::isfinite(q) && q >= 0.0,
                       "source[" << g << "] = " << q << " at cell " << c);
      double out_scatter = 0.0;
      for (int to = 0; to < groups_; ++to) {
        const double ss = sigma_s(g, to, c);
        JSWEEP_CHECK_MSG(std::isfinite(ss) && ss >= 0.0,
                         "σ_s[" << g << "→" << to << "] = " << ss
                                << " at cell " << c);
        out_scatter += ss;
      }
      // Pure scattering (Σ σ_s == σ_t) is a legal physical limit; the
      // summation above can land a hair over σ_t in floating point, so the
      // supercritical check carries both relative and absolute slack.
      JSWEEP_CHECK_MSG(
          out_scatter <= st + 1e-12 * std::max(1.0, st),
          "group " << g << " scatters Σ_to σ_s = " << out_scatter
                   << " > σ_t = " << st << " at cell " << c
                   << " (scattering ratio above one diverges)");
    }
  }
}

MultigroupXs MultigroupXs::cascade(const MaterialTable& table,
                                   const std::vector<int>& materials,
                                   std::int64_t cells, int groups,
                                   double within) {
  JSWEEP_CHECK(within >= 0.0 && within <= 1.0);
  MultigroupXs xs(groups, cells);
  for (std::int64_t c = 0; c < cells; ++c) {
    const int mat =
        materials.empty() ? 0 : materials[static_cast<std::size_t>(c)];
    const CrossSection& base = table.at(mat);
    for (int g = 0; g < groups; ++g) {
      // Harder (higher) groups are slightly more absorbing.
      xs.sigma_t(g, c) = base.sigma_t * (1.0 + 0.25 * g);
      // External source enters the fastest group only (fission-like).
      xs.source(g, c) = g == 0 ? base.source : 0.0;
      const double total_scatter = base.sigma_s * (1.0 + 0.25 * g);
      if (g + 1 < groups) {
        xs.sigma_s(g, g, c) = within * total_scatter;
        xs.sigma_s(g, g + 1, c) = (1.0 - within) * total_scatter;
      } else {
        xs.sigma_s(g, g, c) = total_scatter;  // terminal group
      }
    }
  }
  return xs;
}

MultigroupResult solve_multigroup(const MultigroupXs& xs,
                                  const GroupSweepFactory& sweeps,
                                  const MultigroupOptions& options) {
  const int G = xs.groups();
  const std::int64_t n = xs.cells();

  MultigroupResult result;
  result.phi.assign(static_cast<std::size_t>(G),
                    std::vector<double>(static_cast<std::size_t>(n), 0.0));

  std::vector<SweepOperator> group_sweep;
  group_sweep.reserve(static_cast<std::size_t>(G));
  for (int g = 0; g < G; ++g) group_sweep.push_back(sweeps(g));

  const int outers =
      xs.has_upscatter() ? options.max_outer_iterations : 1;

  for (int outer = 0; outer < outers; ++outer) {
    double outer_error = 0.0;
    for (int g = 0; g < G; ++g) {
      // Fixed in-scatter from the other groups' latest fluxes.
      std::vector<double> inscatter(static_cast<std::size_t>(n), 0.0);
      for (int from = 0; from < G; ++from) {
        if (from == g) continue;
        for (std::int64_t c = 0; c < n; ++c)
          inscatter[static_cast<std::size_t>(c)] +=
              xs.sigma_s(from, g, c) *
              result.phi[static_cast<std::size_t>(from)]
                        [static_cast<std::size_t>(c)];
      }

      // Within-group source iteration: q = (σ_gg φ_g + Q_g + inscatter)/4π.
      CellXs view = xs.group_view(g);
      std::vector<double> phi = result.phi[static_cast<std::size_t>(g)];
      double error = 0.0;
      int iterations = 0;
      for (int it = 0; it < options.inner.max_iterations; ++it) {
        std::vector<double> q(static_cast<std::size_t>(n));
        for (std::int64_t c = 0; c < n; ++c)
          q[static_cast<std::size_t>(c)] =
              (view.sigma_s[static_cast<std::size_t>(c)] *
                   phi[static_cast<std::size_t>(c)] +
               view.source[static_cast<std::size_t>(c)] +
               inscatter[static_cast<std::size_t>(c)]) *
              kInvFourPi;
        std::vector<double> phi_new =
            group_sweep[static_cast<std::size_t>(g)](q);
        ++result.total_sweeps;
        error = relative_linf(phi_new, phi);
        phi = std::move(phi_new);
        iterations = it + 1;
        if (error < options.inner.tolerance) break;
      }
      (void)iterations;
      outer_error = std::max(
          outer_error,
          relative_linf(phi, result.phi[static_cast<std::size_t>(g)]));
      result.phi[static_cast<std::size_t>(g)] = std::move(phi);
    }
    result.outer_iterations = outer + 1;
    result.error = outer_error;
    if (outer_error < options.outer_tolerance) {
      result.converged = true;
      break;
    }
  }
  if (!xs.has_upscatter()) result.converged = true;
  return result;
}

MultigroupSweepPass sequential_sweep_pass(const MultigroupXs& xs,
                                          const GroupSweepFactory& sweeps) {
  return sequential_sweep_pass(xs, sweeps, 1);
}

MultigroupSweepPass sequential_sweep_pass(const MultigroupXs& xs,
                                          const GroupSweepFactory& sweeps,
                                          int group_set_width) {
  JSWEEP_CHECK(group_set_width >= 1);
  auto group_sweep = std::make_shared<std::vector<SweepOperator>>();
  group_sweep->reserve(static_cast<std::size_t>(xs.groups()));
  for (int g = 0; g < xs.groups(); ++g) group_sweep->push_back(sweeps(g));
  return [&xs, group_sweep, group_set_width](
             const std::vector<std::vector<double>>& q_base,
             std::vector<std::vector<double>>& phi) {
    const int G = xs.groups();
    const std::int64_t n = xs.cells();
    std::vector<double> q;
    for (int g = 0; g < G; ++g) {
      q = q_base[static_cast<std::size_t>(g)];
      // Fresh Gauss-Seidel downscatter from groups of *earlier sets* —
      // they were already swept this pass. Within-set downscatter is
      // lagged and already inside q_base. `from` ascends — the
      // accumulation order every pass implementation must share (see
      // inscatter_term). At width 1 the bound is g, the classic scheme.
      const int fresh_bound = group_set_base(g, group_set_width);
      for (int from = 0; from < fresh_bound; ++from) {
        const auto& phi_from = phi[static_cast<std::size_t>(from)];
        for (std::int64_t c = 0; c < n; ++c)
          q[static_cast<std::size_t>(c)] += inscatter_term(
              xs, from, g, c, phi_from[static_cast<std::size_t>(c)]);
      }
      phi[static_cast<std::size_t>(g)] =
          (*group_sweep)[static_cast<std::size_t>(g)](q);
    }
  };
}

MultigroupResult solve_multigroup_sweeps(const MultigroupXs& xs,
                                         const MultigroupSweepPass& pass,
                                         const MultigroupOptions& options) {
  xs.validate();
  const int G = xs.groups();
  const std::int64_t n = xs.cells();
  const int W = options.group_set_width;
  JSWEEP_CHECK_MSG(W >= 1, "group_set_width must be >= 1, got " << W);

  MultigroupResult result;
  result.phi.assign(static_cast<std::size_t>(G),
                    std::vector<double>(static_cast<std::size_t>(n), 0.0));

  // Cached one-group views: σ_gg and Q_g feed the lagged part of q_base
  // through the SAME emission_density() the single-group path uses, which
  // is what makes G == 1 degenerate bitwise to source_iteration().
  std::vector<CellXs> views;
  views.reserve(static_cast<std::size_t>(G));
  for (int g = 0; g < G; ++g) views.push_back(xs.group_view(g));

  const bool upscatter = xs.has_upscatter();
  const int outers = upscatter ? options.max_outer_iterations : 1;

  std::vector<std::vector<double>> q_base(static_cast<std::size_t>(G));
  std::vector<std::vector<double>> phi_frozen;  ///< upscatter sources
  std::vector<std::vector<double>> phi_old;

  for (int outer = 0; outer < outers; ++outer) {
    if (upscatter) phi_frozen = result.phi;
    bool inner_converged = false;
    double inner_error = 0.0;
    for (int it = 0; it < options.inner.max_iterations; ++it) {
      for (int g = 0; g < G; ++g) {
        auto& q = q_base[static_cast<std::size_t>(g)];
        q = emission_density(views[static_cast<std::size_t>(g)],
                             result.phi[static_cast<std::size_t>(g)]);
        // Within-set downscatter, lagged one pass (previous pass's φ): the
        // set's groups sweep together, so they cannot see each other's
        // fresh flux. Empty at W == 1 — the classic scheme is untouched
        // bitwise. `from` ascends, matching inscatter_term's
        // accumulation-order contract.
        for (int from = group_set_base(g, W); from < g; ++from) {
          const auto& pf = result.phi[static_cast<std::size_t>(from)];
          for (std::int64_t c = 0; c < n; ++c)
            q[static_cast<std::size_t>(c)] += inscatter_term(
                xs, from, g, c, pf[static_cast<std::size_t>(c)]);
        }
        if (upscatter) {
          for (int from = g + 1; from < G; ++from) {
            const auto& pf = phi_frozen[static_cast<std::size_t>(from)];
            for (std::int64_t c = 0; c < n; ++c)
              q[static_cast<std::size_t>(c)] += inscatter_term(
                  xs, from, g, c, pf[static_cast<std::size_t>(c)]);
          }
        }
      }
      phi_old = result.phi;
      pass(q_base, result.phi);
      result.total_sweeps += G;
      ++result.pass_iterations;
      inner_error = 0.0;
      for (int g = 0; g < G; ++g)
        inner_error = std::max(
            inner_error,
            relative_linf(result.phi[static_cast<std::size_t>(g)],
                          phi_old[static_cast<std::size_t>(g)]));
      if (inner_error < options.inner.tolerance) {
        inner_converged = true;
        break;
      }
    }
    result.outer_iterations = outer + 1;
    if (!upscatter) {
      result.converged = inner_converged;
      result.error = inner_error;
      break;
    }
    double outer_error = 0.0;
    for (int g = 0; g < G; ++g)
      outer_error = std::max(
          outer_error, relative_linf(result.phi[static_cast<std::size_t>(g)],
                                     phi_frozen[static_cast<std::size_t>(g)]));
    result.error = outer_error;
    if (outer_error < options.outer_tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace jsweep::sn
