// Fixture: hook sites for the registry in fault_points.def.
// FaultPoint::fixtureDangling is named only in this comment and in
// a string below, so it is not wired and must draw a
// fault-hook-coverage finding.

namespace fixture
{

enum class FaultPoint
{
    fixtureWired,
    fixtureDangling,
    fixtureInjected,
    fixtureUntested,
};

const char *danglingBait = "FaultPoint::fixtureDangling";

bool
hooked(FaultPoint p)
{
    return p == FaultPoint::fixtureWired ||
           p == FaultPoint::fixtureInjected ||
           p == FaultPoint::fixtureUntested;
}

} // namespace fixture
