#include "common/stats.hh"

#include <cstdio>

#include "common/logging.hh"

namespace acp
{

void
StatGroup::resetAll()
{
    for (auto &[stat_name, counter] : counters_)
        counter->reset();
    for (auto &[stat_name, avg] : averages_)
        avg->reset();
    for (auto &[stat_name, dist] : distributions_)
        dist->reset();
}

std::uint64_t
StatGroup::counterValue(const std::string &stat_name) const
{
    for (const auto &[name, counter] : counters_)
        if (name == stat_name)
            return counter->value();
    acp_fatal("stat group %s has no counter %s", name_.c_str(),
              stat_name.c_str());
}

void
StatGroup::dump(std::string &out) const
{
    char line[512];
    for (const auto &[stat_name, counter] : counters_) {
        std::snprintf(line, sizeof(line), "%s.%s %llu\n", name_.c_str(),
                      stat_name.c_str(),
                      (unsigned long long)counter->value());
        out += line;
    }
    for (const auto &[stat_name, avg] : averages_) {
        if (avg->count() == 0) {
            // Empty window: min/max never sampled — render them as
            // "-" so an empty average is distinguishable from one
            // whose samples really were zero.
            std::snprintf(line, sizeof(line),
                          "%s.%s mean=%.4f count=0 min=- max=-\n",
                          name_.c_str(), stat_name.c_str(), avg->mean());
        } else {
            std::snprintf(line, sizeof(line),
                          "%s.%s mean=%.4f count=%llu min=%.2f max=%.2f\n",
                          name_.c_str(), stat_name.c_str(), avg->mean(),
                          (unsigned long long)avg->count(), avg->min(),
                          avg->max());
        }
        out += line;
    }
    for (const auto &[stat_name, dist] : distributions_) {
        if (dist->count() == 0) {
            std::snprintf(line, sizeof(line),
                          "%s.%s mean=%.4f count=0 min=- max=-\n",
                          name_.c_str(), stat_name.c_str(), dist->mean());
            out += line;
            continue;
        }
        std::snprintf(line, sizeof(line),
                      "%s.%s mean=%.4f count=%llu min=%llu max=%llu"
                      " buckets=",
                      name_.c_str(), stat_name.c_str(), dist->mean(),
                      (unsigned long long)dist->count(),
                      (unsigned long long)dist->min(),
                      (unsigned long long)dist->max());
        out += line;
        bool first = true;
        const std::vector<std::uint64_t> &buckets = dist->buckets();
        for (unsigned i = 0; i < buckets.size(); ++i) {
            if (buckets[i] == 0)
                continue;
            std::snprintf(line, sizeof(line), "%s[%llu,%llu):%llu",
                          first ? "" : ",",
                          (unsigned long long)StatDistribution::bucketLow(i),
                          (unsigned long long)StatDistribution::bucketHigh(i),
                          (unsigned long long)buckets[i]);
            out += line;
            first = false;
        }
        out += '\n';
    }
}

void
StatGroup::visit(StatVisitor &visitor) const
{
    for (const auto &[stat_name, counter] : counters_)
        visitor.onCounter(name_ + "." + stat_name, counter->value());
    for (const auto &[stat_name, avg] : averages_)
        visitor.onAverage(name_ + "." + stat_name, *avg);
    for (const auto &[stat_name, dist] : distributions_)
        visitor.onDistribution(name_ + "." + stat_name, *dist);
}

} // namespace acp
