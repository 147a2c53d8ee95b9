#include "fault_scenario.hh"

namespace rtm
{

FaultScenario::FaultScenario(
    const ScenarioSpec &spec,
    const std::shared_ptr<const PositionErrorModel> &base)
    : PositionErrorModel(nonNullBase(base, "fault scenario"))
{
    setRegime(spec);
}

std::unique_ptr<FaultScenario>
makeScenario(const ScenarioSpec &spec,
             std::shared_ptr<const PositionErrorModel> base)
{
    return std::make_unique<FaultScenario>(spec, base);
}

std::vector<ScenarioSpec>
standardScenarios()
{
    std::vector<ScenarioSpec> specs;
    for (const auto &[kind, token] : enumTokens(ScenarioKind{})) {
        ScenarioSpec &spec = specs.emplace_back();
        spec.kind = kind;
        spec.name = token;
    }
    return specs;
}

} // namespace rtm
