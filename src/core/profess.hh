/**
 * @file
 * ProFess: MDM guided by RSM (Sec. 3.3, Table 7).
 *
 * When the two blocks of a candidate swap belong to different
 * programs, RSM's slowdown factors steer the decision:
 *
 *  Case 1: SF_A(c1) < SF_A(c2) and SF_B(c1) < SF_B(c2)
 *          -> consider M1 vacant and use MDM (aggressive help for
 *             the suffering program c2)
 *  Case 2: SF_A(c1) > SF_A(c2) and SF_B(c1) > SF_B(c2)
 *          -> do not swap (protect c1's block)
 *  Case 3: SF_A(c1) < SF_A(c2) and SF_B(c1) > SF_B(c2) and
 *          SF_A(c1)*SF_B(c1) > SF_A(c2)*SF_B(c2)
 *          -> do not swap
 *  otherwise -> plain MDM
 *
 * Each single-factor comparison uses a ~3% hysteresis threshold
 * (1/32) and the product comparison a ~6% threshold (1/16) to skip
 * too-similar values (Sec. 3.3).
 */

#ifndef PROFESS_CORE_PROFESS_HH
#define PROFESS_CORE_PROFESS_HH

#include "core/mdm.hh"
#include "core/mdm_policy.hh"
#include "core/rsm.hh"
#include "hybrid/layout.hh"
#include "os/page_allocator.hh"
#include "policy/policy.hh"

namespace profess
{

namespace core
{

/** The full framework as a migration policy. */
class ProfessPolicy : public policy::MigrationPolicy
{
  public:
    struct Params
    {
        Mdm::Params mdm{};
        Rsm::Params rsm{};
        double factorThreshold = 1.0 + 1.0 / 32.0;  ///< ~3%
        double productThreshold = 1.0 + 1.0 / 16.0; ///< ~6%
    };

    ProfessPolicy(const hybrid::HybridLayout &layout,
                  const os::BlockOwnerOracle &oracle,
                  const Params &params)
        : layout_(layout), oracle_(oracle), mdm_(params.mdm),
          rsm_(params.rsm),
          guidance_(rsm_, params.factorThreshold,
                    params.productThreshold)
    {
    }

    const char *name() const override { return "profess"; }
    unsigned writeWeight() const override { return 8; }

    policy::Decision onM2Access(const policy::AccessInfo &info)
        override;

    void
    onServed(const policy::AccessInfo &info) override
    {
        rsm_.onServed(info.accessor, info.region, info.fromM1,
                      info.now);
    }

    void
    onStcEvict(std::uint64_t group, const hybrid::StcMeta &meta,
               hybrid::StEntry &entry) override
    {
        applyEvictionUpdates(mdm_, layout_, oracle_, group, meta,
                             entry);
    }

    void
    onSwapComplete(std::uint64_t, unsigned, unsigned,
                   ProgramId promoted_owner, ProgramId demoted_owner,
                   bool private_region) override
    {
        rsm_.onSwap(promoted_owner, demoted_owner, private_region);
    }

    Rsm *rsm() override { return &rsm_; }
    Mdm *mdm() override { return &mdm_; }
    const Guidance *guidance() const override { return &guidance_; }

    /** Trace guidance cases + MDM decisions + RSM periods. */
    void setTraceSink(telemetry::DecisionTraceSink *sink) override;

    /** Register RSM/MDM/guidance statistics under `prefix`. */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) override;

    /** Audit both sub-mechanisms (MDM Table 6, RSM Table 3). */
    void
    auditInvariants() const override
    {
        mdm_.auditInvariants();
        rsm_.auditInvariants();
    }

  private:
    const hybrid::HybridLayout &layout_;
    const os::BlockOwnerOracle &oracle_;
    Mdm mdm_;
    Rsm rsm_;
    Guidance guidance_; ///< after rsm_, which it reads
};

} // namespace core

} // namespace profess

#endif // PROFESS_CORE_PROFESS_HH
