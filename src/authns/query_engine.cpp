#include "authns/query_engine.hpp"

namespace recwild::authns {

namespace {

constexpr int kMaxCnameChain = 8;  // defensive bound on in-zone loops

// Copies the set's records into a section, owned by `owner` (the set's own
// name, or the query name when synthesizing from a wildcard).
void append(std::vector<dns::ResourceRecord>& section, const dns::RRset& set,
            const dns::Name& owner) {
  for (const auto& rd : set.rdatas) {
    section.push_back(dns::ResourceRecord{owner, set.rrclass, set.ttl, rd});
  }
}

}  // namespace

void QueryEngine::add_referral(LookupResult& out,
                               const dns::RRset& delegation) const {
  out.disposition = Disposition::Referral;
  out.authoritative = false;
  append(out.authorities, delegation, delegation.name);
  for (const auto& rd : delegation.rdatas) {
    zone_.glue_for(std::get<dns::NsRdata>(rd).nsdname, out.additionals);
  }
}

void QueryEngine::add_negative(LookupResult& out) const {
  // Negative answers carry the SOA with the negative TTL (RFC 2308 §3).
  const dns::RRset* soa = zone_.find(zone_.origin(), dns::RRType::SOA);
  if (soa == nullptr) return;
  for (const auto& rd : soa->rdatas) {
    out.authorities.push_back(dns::ResourceRecord{
        soa->name, soa->rrclass, zone_.negative_ttl(), rd});
  }
}

LookupResult QueryEngine::lookup(const dns::Question& q) const {
  LookupResult out;
  if ((q.qclass != zone_.rrclass() && q.qclass != dns::RRClass::ANY) ||
      !q.qname.is_subdomain_of(zone_.origin())) {
    out.rcode = dns::Rcode::Refused;
    return out;  // Disposition::NotAuth
  }

  out.authoritative = true;
  const dns::Name* qname = &q.qname;

  for (int chain = 0; chain <= kMaxCnameChain; ++chain) {
    const Zone::Match m = zone_.match(*qname);
    // 1. Delegation cut between apex and qname? Refer (unless the qname is
    //    the delegation point itself and asks for NS — still a referral per
    //    RFC 1034, since we are not authoritative below the cut).
    if (m.cut != nullptr) {
      add_referral(out, *m.cut);
      return out;
    }

    // 2. The RRsets that answer: the name's own, or — for a name that does
    //    not exist — the closest encloser's wildcard, synthesized at qname.
    const bool wild = !m.exists;
    const Disposition answered = wild ? Disposition::Wildcard
                                      : Disposition::Answer;
    const dns::RRset* hit = nullptr;
    const dns::RRset* cname = nullptr;
    if (const auto* sets = wild ? m.wildcard : m.exact; sets != nullptr) {
      for (const auto& s : *sets) {
        if (s.type == q.qtype) hit = &s;
        if (s.type == dns::RRType::CNAME) cname = &s;
      }
      // ANY at an existing name: everything there.
      if (!wild && q.qtype == dns::RRType::ANY) {
        for (const auto& s : *sets) append(out.answers, s, s.name);
        out.disposition = answered;
        return out;
      }
    }
    // 2a. A CNAME answers every other type (at the name itself it wins
    //     over the data it must not sit beside): follow it in-zone.
    if (cname != nullptr && q.qtype != dns::RRType::CNAME &&
        (!wild || hit == nullptr)) {
      append(out.answers, *cname, wild ? *qname : cname->name);
      const auto& target =
          std::get<dns::CnameRdata>(cname->rdatas.front()).target;
      if (target.is_subdomain_of(zone_.origin())) {
        qname = &target;
        continue;  // chase in-zone
      }
      // Out-of-zone target: answer ends with the CNAME.
      out.disposition = answered;
      return out;
    }
    // 2b. Exact type match; NS answers at the apex get glue in additional.
    if (hit != nullptr) {
      append(out.answers, *hit, wild ? *qname : hit->name);
      out.disposition = answered;
      if (!wild && q.qtype == dns::RRType::NS) {
        for (const auto& rd : hit->rdatas) {
          zone_.glue_for(std::get<dns::NsRdata>(rd).nsdname, out.additionals);
        }
      }
      return out;
    }

    // 3. NODATA: the name exists (with other types, or as an empty
    //    non-terminal). Otherwise NXDOMAIN. A wildcard at the closest
    //    encloser for a *different* type means the name "exists" for
    //    NODATA purposes (RFC 4592), but we keep the simpler NXDOMAIN
    //    unless a wildcard of the qtype or a CNAME applies.
    if (wild) out.rcode = dns::Rcode::NxDomain;
    out.disposition = wild ? Disposition::NxDomain : Disposition::NoData;
    add_negative(out);
    return out;
  }
  // CNAME chain exceeded the bound: answer with what we have.
  out.disposition = Disposition::Answer;
  return out;
}

}  // namespace recwild::authns
