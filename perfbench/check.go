package main

import (
	"bytes"
	"fmt"
	"math"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/pricing"
)

// settlement is the mechanism configuration every workload passes to
// the program explicitly, so the checks recompute under the same one.
type settlement struct {
	pricer pricing.Pricer
	mech   mechanism.Config
	rating float64
}

func paperSettlement() settlement {
	return settlement{
		pricer: pricing.Quadratic{Sigma: pricing.DefaultSigma},
		mech:   mechanism.DefaultConfig(),
		rating: core.DefaultPowerRating,
	}
}

func (s settlement) options() []netproto.Option {
	return []netproto.Option{
		netproto.WithPricer(s.pricer),
		netproto.WithMechanism(s.mech),
		netproto.WithRating(s.rating),
		netproto.WithTraceSeed(traceSeed),
	}
}

// checkTheorem1 is Theorem 1's budget identity: Σp = ξ·κ to within
// 1e-6 of the revenue's magnitude.
func checkTheorem1(revenue, cost, xi float64) error {
	if math.Abs(revenue-xi*cost) > 1e-6*math.Max(1, math.Abs(revenue)) {
		return fmt.Errorf("theorem 1: Σp = %.9f, ξ·κ = %.9f", revenue, xi*cost)
	}
	return nil
}

// checkDayRecord recomputes a center day's flexibility, defection,
// social cost, cost and payments with the public mechanism functions
// from the record's own reports, assignments and consumptions, and
// requires exact equality, plus Theorem 1.
func checkDayRecord(rec *netproto.DayRecord, s settlement) error {
	n := len(rec.Reports)
	if len(rec.Assignments) != n || len(rec.Consumptions) != n || len(rec.Payments) != n ||
		len(rec.Flexibility) != n || len(rec.Defection) != n || len(rec.SocialCost) != n {
		return fmt.Errorf("day %d: record slices are not aligned with %d reports", rec.Day, n)
	}
	prefs := make([]core.Preference, n)
	assigned := make([]core.Interval, n)
	consumed := make([]core.Interval, n)
	for i := range rec.Reports {
		if rec.Assignments[i].ID != rec.Reports[i].ID || rec.Consumptions[i].ID != rec.Reports[i].ID {
			return fmt.Errorf("day %d: row %d IDs disagree", rec.Day, i)
		}
		prefs[i] = rec.Reports[i].Pref
		assigned[i] = rec.Assignments[i].Interval
		consumed[i] = rec.Consumptions[i].Interval
	}
	flex := mechanism.ActualFlexibilities(mechanism.FlexibilityScores(prefs), assigned, consumed)
	for i, sub := range rec.Substituted {
		if sub {
			flex[i] = 0
		}
	}
	defect := mechanism.DefectionScores(s.pricer, s.rating, assigned, consumed)
	psi, err := mechanism.SocialCostScores(flex, defect, s.mech.K)
	if err != nil {
		return fmt.Errorf("day %d: social cost: %w", rec.Day, err)
	}
	load := core.LoadOf(consumed, s.rating)
	cost := pricing.Cost(s.pricer, load)
	pay, err := mechanism.Payments(psi, s.mech.Xi, cost)
	if err != nil {
		return fmt.Errorf("day %d: payments: %w", rec.Day, err)
	}
	if cost != rec.Cost || load.Peak() != rec.Peak {
		return fmt.Errorf("day %d: cost/peak %g/%g, recomputed %g/%g", rec.Day, rec.Cost, rec.Peak, cost, load.Peak())
	}
	for _, col := range []struct {
		name      string
		got, want []float64
	}{
		{"flexibility", rec.Flexibility, flex},
		{"defection", rec.Defection, defect},
		{"social cost", rec.SocialCost, psi},
		{"payment", rec.Payments, pay},
	} {
		for i := range col.want {
			if col.got[i] != col.want[i] {
				return fmt.Errorf("day %d: household %d %s %g, recomputed %g",
					rec.Day, rec.Reports[i].ID, col.name, col.got[i], col.want[i])
			}
		}
	}
	var revenue float64
	for _, p := range rec.Payments {
		revenue += p
	}
	if err := checkTheorem1(revenue, rec.Cost, s.mech.Xi); err != nil {
		return fmt.Errorf("day %d: %w", rec.Day, err)
	}
	return nil
}

// checkClusterDay checks Theorem 1 on every shard and on the merge,
// and that no shard failed.
func checkClusterDay(rec *netproto.ClusterDayRecord, s settlement) error {
	if rec.Failed > 0 {
		return fmt.Errorf("day %d: %d shards failed", rec.Day, rec.Failed)
	}
	for _, sd := range rec.Shards {
		if err := checkTheorem1(sd.Revenue, sd.Cost, s.mech.Xi); err != nil {
			return fmt.Errorf("day %d shard %d: %w", rec.Day, sd.Shard, err)
		}
	}
	if err := checkTheorem1(rec.Revenue, rec.Cost, s.mech.Xi); err != nil {
		return fmt.Errorf("day %d: %w", rec.Day, err)
	}
	return nil
}

// checkReplicaLedgers requires every replica's ledger to be
// byte-identical and every entry to pass LedgerEntry.Audit. It returns
// the days whose entries failed, and an error for a whole-ledger fault.
func checkReplicaLedgers(ledgers [][]byte) (map[int]bool, error) {
	if len(ledgers) == 0 {
		return nil, fmt.Errorf("no replica ledgers")
	}
	for i := 1; i < len(ledgers); i++ {
		if !bytes.Equal(ledgers[0], ledgers[i]) {
			return nil, fmt.Errorf("replica %d ledger (%d bytes) differs from replica 0 (%d bytes)",
				i, len(ledgers[i]), len(ledgers[0]))
		}
	}
	entries, err := mechanism.ReadLedger(bytes.NewReader(ledgers[0]))
	if err != nil {
		return nil, fmt.Errorf("read replica ledger: %w", err)
	}
	bad := map[int]bool{}
	for _, e := range entries {
		if len(e.Audit()) > 0 {
			bad[e.Day] = true
		}
	}
	return bad, nil
}
