/**
 * @file
 * RSM guidance wrapped around an arbitrary migration policy.
 *
 * The paper notes (Sec. 6) that RSM merely guides migration
 * decisions and "can be integrated with other migration algorithms
 * instead of MDM".  This wrapper applies the Table 7 cases to any
 * inner policy: Case 1 forces the swap (aggressive help - inner
 * policies have no notion of a vacant M1, so help is maximal),
 * Cases 2 and 3 prohibit it, and everything else defers to the
 * inner policy.  Used by the rsm-pom ablation benchmark.
 */

#ifndef PROFESS_CORE_RSM_GUIDED_HH
#define PROFESS_CORE_RSM_GUIDED_HH

#include <memory>
#include <string>

#include "core/rsm.hh"
#include "policy/policy.hh"

namespace profess
{

namespace core
{

/** RSM-guided wrapper policy. */
class RsmGuidedPolicy : public policy::MigrationPolicy
{
  public:
    /**
     * @param factor_threshold Table 7 single-factor threshold.
     * @param product_threshold Table 7 Case 3 product threshold.
     */
    RsmGuidedPolicy(std::unique_ptr<policy::MigrationPolicy> inner,
                    const Rsm::Params &rsm_params,
                    double factor_threshold, double product_threshold)
        : inner_(std::move(inner)), rsm_(rsm_params),
          guidance_(rsm_, factor_threshold, product_threshold),
          name_(std::string("rsm-") + inner_->name())
    {
    }

    const char *name() const override { return name_.c_str(); }
    unsigned writeWeight() const override
    {
        return inner_->writeWeight();
    }

    void
    setHost(policy::SwapHost *host) override
    {
        policy::MigrationPolicy::setHost(host);
        inner_->setHost(host);
    }

    policy::Decision
    onM2Access(const policy::AccessInfo &info) override
    {
        GuidanceCase c = guidance_.classify(info);
        // The inner policy sees every access, so its state stays
        // warm whatever the guidance decides.
        policy::Decision d = inner_->onM2Access(info);
        switch (c) {
          case GuidanceCase::Case1:
            d = policy::Decision::Swap;
            break;
          case GuidanceCase::Case2:
          case GuidanceCase::Case3:
            d = policy::Decision::NoSwap;
            break;
          default:
            break;
        }
        guidance_.trace(info, c, d);
        return d;
    }

    void
    onM1Access(const policy::AccessInfo &info) override
    {
        inner_->onM1Access(info);
    }

    void
    onServed(const policy::AccessInfo &info) override
    {
        rsm_.onServed(info.accessor, info.region, info.fromM1,
                      info.now);
        inner_->onServed(info);
    }

    void
    onStcInsert(std::uint64_t group, hybrid::StcMeta &meta) override
    {
        inner_->onStcInsert(group, meta);
    }

    void
    onStcEvict(std::uint64_t group, const hybrid::StcMeta &meta,
               hybrid::StEntry &entry) override
    {
        inner_->onStcEvict(group, meta, entry);
    }

    void
    onSwapComplete(std::uint64_t group, unsigned promoted,
                   unsigned demoted, ProgramId promoted_owner,
                   ProgramId demoted_owner,
                   bool private_region) override
    {
        rsm_.onSwap(promoted_owner, demoted_owner, private_region);
        inner_->onSwapComplete(group, promoted, demoted,
                               promoted_owner, demoted_owner,
                               private_region);
    }

    Cycles periodicInterval() const override
    {
        return inner_->periodicInterval();
    }

    void onPeriodic() override { inner_->onPeriodic(); }

    Rsm *rsm() override { return &rsm_; }
    Mdm *mdm() override { return inner_->mdm(); }
    const Guidance *guidance() const override { return &guidance_; }

    /** Audit the RSM bookkeeping and the wrapped inner policy. */
    void
    auditInvariants() const override
    {
        rsm_.auditInvariants();
        inner_->auditInvariants();
    }

    void
    setTraceSink(telemetry::DecisionTraceSink *sink) override
    {
        guidance_.setTraceSink(sink);
        rsm_.setTraceSink(sink);
        inner_->setTraceSink(sink);
    }

    void
    registerTelemetry(telemetry::StatRegistry &registry,
                      const std::string &prefix) override
    {
        guidance_.registerTelemetry(registry, prefix + ".guidance");
        rsm_.registerTelemetry(registry, prefix + ".rsm");
        inner_->registerTelemetry(registry, prefix + ".inner");
    }

  private:
    std::unique_ptr<policy::MigrationPolicy> inner_;
    Rsm rsm_;
    Guidance guidance_; ///< after rsm_, which it reads
    std::string name_;
};

} // namespace core

} // namespace profess

#endif // PROFESS_CORE_RSM_GUIDED_HH
