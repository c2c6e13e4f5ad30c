"""Every problem in ``_small_scope``'s scope, checked against the oracles.

The number of priors is fixed from a budget of about 3 s for the whole
test.  The counts pinned at the end describe what the library does on the
scope today; a change that moves one on purpose updates it and says so.
"""

from collections import Counter
from itertools import islice

from _oracles import brute_certificate_holds, brute_val_general, brute_val_good
from _small_scope import PARTITIONS, policies, priors, problems

from infovalue.adversary import demonstrate_aversion
from infovalue.errors import IndependenceBrokenError, NoDeviationError
from infovalue.updating import deviating_states
from infovalue.voi import evaluate, val_general, val_good

PRIORS = 3


def test_every_problem_in_scope_meets_the_oracles_and_the_paper():
    counts = Counter()
    every_policy = list(policies())
    for prior in islice(priors(), PRIORS):
        scope = problems(prior)
        # val_good reads no policy, so its oracle runs once per partition
        good = {(i, q): brute_val_good(p, q) for i, p in enumerate(scope) for q in PARTITIONS}
        for policy in every_policy:
            counts["pairs"] += 1
            conditionalizes = not deviating_states(policy, prior)
            harmful = False
            for i, problem in enumerate(scope):
                counts["instances"] += 1
                where = (prior, policy, problem.choices)
                classical = val_good(problem, policy.partition)
                general = val_general(problem, policy)
                assert classical == good[i, policy.partition], where
                assert general == brute_val_general(problem, policy), where
                assert classical >= 0, where
                assert general == classical or not conditionalizes, where
                try:
                    report = evaluate(problem, policy)
                except IndependenceBrokenError:
                    counts["evaluate refusals"] += 1
                else:
                    assert (report.val_good, report.val_general) == (classical, general)
                    assert general <= classical, where
                harmful |= general < 0
            try:
                certificate = demonstrate_aversion(scope[0], policy)
            except (NoDeviationError, IndependenceBrokenError) as refusal:
                counts[type(refusal).__name__] += 1
                counts["refused pairs with a harmful problem"] += harmful
            else:
                counts["certificates"] += 1
                assert brute_certificate_holds(
                    prior,
                    policy,
                    certificate.state,
                    certificate.event.members,
                    certificate.val_general,
                ), (prior, policy)
    # a refused pair can hurt: items 2 and 6 of the ROADMAP lower the last count
    assert dict(counts) == {
        "pairs": 675,
        "instances": 18225,
        "evaluate refusals": 6792,
        "certificates": 327,
        "NoDeviationError": 2,
        "IndependenceBrokenError": 346,
        "refused pairs with a harmful problem": 302,
    }
