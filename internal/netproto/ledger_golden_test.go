package netproto

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// The golden ledger hashes pin the audit-ledger bytes to what the
// reflection-based encoding/json encoder produced before the ledger got
// its own appender. The byte-identity tests elsewhere compare two runs
// of the same code, so an encoder drift that both runs share would pass
// them; these constants would not.
const (
	goldenClusterLedger      = "f904c7622c247e078da5574a87d93f0c012af19eae4c05edb86e770633fa0b6e"
	goldenClusterLedgerBytes = 76394
	// The fault-free three-day neighborhood: a standalone center and
	// a 3-replica set (merged and per-replica) settle the same bytes.
	goldenCenterLedger     = "4e37ef0d4c53f0905647f1ad6d016e6b32b00776dd985f2a3096a4e0f17f9179"
	goldenCenterDarkLedger = "4bc52c22860bcc76bab8f5c5310b1dd49bc0c168338dbf7611aabb8290904cdb"
)

func ledgerHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// degradedClusterLedger settles two days of a fixed-seed 120-household,
// 4-shard cluster whose shard 1 loses its first request frame (absent
// households) and whose shard 2 loses one consumption reply (a
// substituted household), and returns the merged ledger bytes.
func degradedClusterLedger(t *testing.T, codec string, workers int) []byte {
	t.Helper()
	var ledger bytes.Buffer
	cluster := buildCluster(t, 120,
		WithShards(4),
		WithWorkers(workers),
		WithCodec(codec),
		WithBatchSize(4),
		WithTraceSeed(7),
		WithLedger(NewJournal(&ledger)),
		WithShardFaultPlan(1, &FaultPlan{Actions: map[int]FaultAction{0: FaultGarble}}),
		WithShardFaultPlan(2, &FaultPlan{Actions: map[int]FaultAction{90: FaultDrop}}),
	)
	absent, substituted := 0, 0
	for day := 1; day <= 2; day++ {
		rec, err := cluster.ClusterDay(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		absent += rec.Absent
		substituted += rec.Substituted
	}
	if absent == 0 || substituted == 0 {
		t.Fatalf("fault plan produced %d absent, %d substituted; want both > 0", absent, substituted)
	}
	return ledger.Bytes()
}

func TestGoldenLedgerCluster(t *testing.T) {
	for _, codec := range []string{"binary", "json"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", codec, workers), func(t *testing.T) {
				got := degradedClusterLedger(t, codec, workers)
				if len(got) != goldenClusterLedgerBytes {
					t.Errorf("ledger is %d bytes, golden %d", len(got), goldenClusterLedgerBytes)
				}
				if h := ledgerHash(got); h != goldenClusterLedger {
					t.Errorf("ledger sha256 %s, golden %s", h, goldenClusterLedger)
				}
			})
		}
	}
}

func TestGoldenLedgerCenter(t *testing.T) {
	if h := ledgerHash(runChaosDays(t, 3, nil)); h != goldenCenterLedger {
		t.Errorf("chaos center ledger sha256 %s, golden %s", h, goldenCenterLedger)
	}

	var buf bytes.Buffer
	c, _ := startDarkAgentCenter(t, &buf)
	record, err := c.RunDayContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if record.Substituted == nil {
		t.Fatal("dark-agent day settled without a substitution")
	}
	if h := ledgerHash(buf.Bytes()); h != goldenCenterDarkLedger {
		t.Errorf("dark-agent center ledger sha256 %s, golden %s", h, goldenCenterDarkLedger)
	}
}

func TestGoldenLedgerReplicaSet(t *testing.T) {
	var buf bytes.Buffer
	rs := startReplicaSet(t, &buf)
	runReplicaDays(t, rs, 3)
	if h := ledgerHash(buf.Bytes()); h != goldenCenterLedger {
		t.Errorf("merged ledger sha256 %s, golden %s", h, goldenCenterLedger)
	}
	for id := 0; id < 3; id++ {
		if h := ledgerHash(rs.ReplicaLedger(id)); h != goldenCenterLedger {
			t.Errorf("replica %d ledger sha256 %s, golden %s", id, h, goldenCenterLedger)
		}
	}
}
