package exp_test

import (
	"fmt"

	"budgetwf/internal/exp"
	"budgetwf/internal/market"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// ExampleRunSpotSweep asks whether preemptible capacity is worth the
// risk. A two-provider market prices the home provider's categories
// next to a cheaper neighbor reachable over a paid transfer link. The
// sweep derives spot twins of every category over a discount ×
// revocation-rate grid: at each market condition the spot-aware
// planner (sched.SpotVariant) prices the expected revocation rework
// into its category choices, pins sink tasks to on-demand siblings,
// and the online executor replays revocation-injected executions — a
// revoked spot VM is billed for its uptime, its lost work resubmits to
// the on-demand sibling, and the budget guard arbitrates every
// recovery.
//
// The baseline is a deadline-driven user: plain HEFT plans for pure
// makespan on the identical on-demand catalog, under the same budgets
// and the same realized task weights. The spot twin of the fastest
// category runs at the same speed, so the market's promise is a
// cheaper bill for the same timeline — and the frontier shows exactly
// when that promise holds: at calm hazards the saving tracks the
// discount at unchanged success probability, and as the revocation
// rate grows, billed-but-wasted uptime plus on-demand resubmissions
// claw it back until spot costs more than on-demand.
func ExampleRunSpotSweep() {
	// On-demand price sheets only: the sweep derives the spot twins per
	// grid point, so every (discount, rate) condition competes on the
	// same base market.
	spec, err := market.ParseSpecBytes([]byte(`{
		"providers": [
			{"name": "home", "categories": [
				{"name": "small", "speed": 1e9, "costPerSec": 6.444e-6, "initCost": 0.0001},
				{"name": "large", "speed": 4e9, "costPerSec": 5.155e-5, "initCost": 0.0001}
			]},
			{"name": "neighbor", "categories": [
				{"name": "std", "speed": 2e9, "costPerSec": 1.6e-5, "initCost": 0.0001}
			]}
		],
		"transfer": [[{}, {"costPerGB": 0.02, "latencySec": 0.5}],
		             [{"costPerGB": 0.02, "latencySec": 0.5}, {}]]
	}`))
	if err != nil {
		panic(err)
	}
	plat, err := spec.Compile()
	if err != nil {
		panic(err)
	}
	heft, err := sched.ByName(sched.NameHeft)
	if err != nil {
		panic(err)
	}

	sc := exp.SpotScenario{
		Scenario: exp.Scenario{
			Type:       wfgen.Montage,
			N:          20,
			SigmaRatio: 0.5,
			Platform:   plat,
			Instances:  5,
			Reps:       40,
			Seed:       42,
			Estimator:  exp.EstimatorMC,
		},
		Alg: heft,
		// The guard budget is generous (6 × cheapest feasible cost):
		// the question here is the bill, not feasibility, and a tight
		// guard would veto recoveries and muddy the success comparison.
		BudgetFactor: 6,
		Discounts:    []float64{0.5, 0.7},
		Rates:        []float64{0.1, 2, 6, 20, 60},
	}
	res, err := exp.RunSpotSweep(sc)
	if err != nil {
		panic(err)
	}

	fmt.Printf("Montage-20 on a two-provider market, HEFT planning, budget guard at $%.4f\n", res.Budget)
	fmt.Printf("%d instances × %d revocation-injected executions per market condition\n\n", sc.Instances, sc.Reps)
	fmt.Printf("baseline (heft, on-demand only): mean cost $%.5f, mean makespan %.0fs, success 100%%\n\n",
		res.BaselineCost.Mean, res.BaselineMakespan.Mean)

	fmt.Println("discount  revocations/h  success  meanCost   meanMakespan   saving   spotVMs  revocs  rework$")
	for _, p := range res.Points {
		fmt.Printf("   %3.0f%%   %12.1f   %5.1f%%  $%.5f         %5.0fs  %+6.1f%%     %4.2f   %5.2f  %.5f\n",
			100*p.Discount, p.Rate, 100*p.SuccessRate,
			p.Cost.Mean, p.Makespan.Mean, 100*p.CostSaving, p.SpotVMs, p.Revocations, p.ReworkCost)
	}
	fmt.Println()
	fmt.Println("Reading the frontier: the spot twins run at on-demand speed, so success")
	fmt.Println("stays at the baseline's 100% everywhere — the market only moves the bill.")
	fmt.Println("At calm hazards the saving approaches the discount (sink VMs stay on")
	fmt.Println("demand, so it lands below the headline rate); past tens of revocations")
	fmt.Println("per hour the billed-but-wasted uptime and the on-demand resubmissions")
	fmt.Println("cost more than the discount saves, and on-demand wins again.")
	// Output:
	// Montage-20 on a two-provider market, HEFT planning, budget guard at $0.0643
	// 5 instances × 40 revocation-injected executions per market condition
	//
	// baseline (heft, on-demand only): mean cost $0.01458, mean makespan 130s, success 100%
	//
	// discount  revocations/h  success  meanCost   meanMakespan   saving   spotVMs  revocs  rework$
	//     50%            0.1   100.0%  $0.01135           130s   +22.1%     3.00    0.00  0.00000
	//     50%            2.0   100.0%  $0.01163           133s   +20.2%     3.00    0.06  0.00003
	//     50%            6.0   100.0%  $0.01235           141s   +15.3%     3.00    0.20  0.00008
	//     50%           20.0   100.0%  $0.01489           166s    -2.2%     3.00    0.70  0.00038
	//     50%           60.0   100.0%  $0.01796           197s   -23.2%     3.00    1.86  0.00099
	//     70%            0.1   100.0%  $0.01006           130s   +31.0%     3.00    0.00  0.00000
	//     70%            2.0   100.0%  $0.01032           133s   +29.2%     3.00    0.06  0.00002
	//     70%            6.0   100.0%  $0.01100           141s   +24.5%     3.00    0.20  0.00005
	//     70%           20.0   100.0%  $0.01343           166s    +7.9%     3.00    0.70  0.00026
	//     70%           60.0   100.0%  $0.01677           197s   -15.0%     3.00    1.86  0.00067
	//
	// Reading the frontier: the spot twins run at on-demand speed, so success
	// stays at the baseline's 100% everywhere — the market only moves the bill.
	// At calm hazards the saving approaches the discount (sink VMs stay on
	// demand, so it lands below the headline rate); past tens of revocations
	// per hour the billed-but-wasted uptime and the on-demand resubmissions
	// cost more than the discount saves, and on-demand wins again.
}
