package netproto

import (
	"context"
	"io"
	"strconv"
	"strings"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/obs"
	"enki/internal/profile"
)

// benchBatch builds a representative shard-phase batch: the message mix
// one batch frame actually carries during a day (requests, preferences,
// allocations, consumptions, payments).
func benchBatch(n int) []*Message {
	pref := core.MustPreference(16, 22, 3)
	iv := core.Interval{Begin: 17, End: 20}
	msgs := make([]*Message, 0, n)
	for i := 0; i < n; i++ {
		id := core.HouseholdID(i)
		switch i % 5 {
		case 0:
			msgs = append(msgs, &Message{Kind: KindRequest, ID: id, Day: 3})
		case 1:
			msgs = append(msgs, &Message{Kind: KindPreference, ID: id, Day: 3, Pref: &pref})
		case 2:
			msgs = append(msgs, &Message{Kind: KindAllocation, ID: id, Day: 3, Interval: &iv})
		case 3:
			msgs = append(msgs, &Message{Kind: KindConsumption, ID: id, Day: 3, Interval: &iv})
		default:
			msgs = append(msgs, &Message{Kind: KindPayment, ID: id, Day: 3,
				Payment: &PaymentDetail{Amount: 12.5, Flexibility: 0.4, TotalCost: 980.25}})
		}
	}
	return msgs
}

// BenchmarkBatchEncode measures AppendBatch per codec over a
// DefaultBatchSize batch; wireB/op is the encoded frame size.
func BenchmarkBatchEncode(b *testing.B) {
	msgs := benchBatch(DefaultBatchSize)
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		b.Run("codec="+name, func(b *testing.B) {
			var buf []byte
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err = AppendBatch(buf[:0], c, msgs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "wireB/op")
		})
	}
}

// BenchmarkBatchDecode measures DecodeBatch per codec.
func BenchmarkBatchDecode(b *testing.B) {
	msgs := benchBatch(DefaultBatchSize)
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		frame, err := AppendBatch(nil, c, msgs)
		if err != nil {
			b.Fatal(err)
		}
		payload := frame[4:]
		b.Run("codec="+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBatch(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterDay settles a full preference→payment day over the
// sharded service. The codec and batch-size axes expose the two wire
// deltas BENCH_net.json is the baseline for: JSON vs binary, and
// batched frames vs frame-per-message (batch=1). frames/op and
// wireB/op come from the obs counters, so they gate the real framing
// behavior rather than an estimate.
func BenchmarkClusterDay(b *testing.B) {
	const households, shards = 2000, 16
	cases := []struct {
		codec string
		batch int
	}{
		{CodecJSON, DefaultBatchSize},
		{CodecBinary, DefaultBatchSize},
		{CodecBinary, 1},
	}
	for _, tc := range cases {
		b.Run("codec="+tc.codec+"/batch="+strconv.Itoa(tc.batch), func(b *testing.B) {
			cluster, err := StartCluster(context.Background(),
				WithShards(shards),
				WithCodec(tc.codec),
				WithBatchSize(tc.batch),
				WithShardRecords(false),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < households; i++ {
				p := gen.Draw()
				if err := cluster.Join(core.HouseholdID(i), &Truthful{Type: p.TypeWide()}); err != nil {
					b.Fatal(err)
				}
			}

			frames0 := counterFamily(obs.MetricNetFramesTotal)
			bytes0 := counterFamily(obs.MetricNetCodecBytesTotal)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.ClusterDay(context.Background(), i+1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(counterFamily(obs.MetricNetFramesTotal)-frames0)/float64(b.N), "frames/op")
			b.ReportMetric(float64(counterFamily(obs.MetricNetCodecBytesTotal)-bytes0)/float64(b.N), "wireB/op")
		})
	}
}

// BenchmarkCenterDay settles a full day on a loopback TCP center with
// 50 Connect agents, one sub-benchmark per session codec: the socket
// rung of the ladder between ClusterDay (no sockets) and ReplicaDay
// (plus quorum rounds). frames/op and wireB/op come from the obs
// counters of the sent direction: center and agents share the process,
// so that counts every frame once, and every send of a day is done by
// the time RunDay returns, while the agents' last reads may not be.
func BenchmarkCenterDay(b *testing.B) {
	const households = 50
	for _, codec := range []string{CodecJSON, CodecBinary} {
		b.Run("codec="+codec, func(b *testing.B) {
			center, err := StartCenter("127.0.0.1:0", WithCodec(codec), WithTraceSeed(7))
			if err != nil {
				b.Fatal(err)
			}
			defer center.Close()
			gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < households; i++ {
				p := gen.Draw()
				a, err := Connect(context.Background(), center.Addr(), core.HouseholdID(i), &Truthful{Type: p.TypeWide()})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
			}
			if err := center.WaitForAgentsContext(context.Background(), households); err != nil {
				b.Fatal(err)
			}

			reg := obs.Default()
			frames := reg.Counter(obs.MetricNetFramesTotal, obs.LabelDirection, obs.DirectionSent)
			wireBytes := reg.Counter(obs.MetricNetCodecBytesTotal, obs.LabelCodec, codec, obs.LabelDirection, obs.DirectionSent)
			frames0, bytes0 := frames.Value(), wireBytes.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := center.RunDay(i + 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(frames.Value()-frames0)/float64(b.N), "frames/op")
			b.ReportMetric(float64(wireBytes.Value()-bytes0)/float64(b.N), "wireB/op")
		})
	}
}

// BenchmarkReplicaDay settles a full day through a 3-replica
// StartReplicaSet with 50 loopback agents and the merged ledger on:
// the agent sessions of a socket center plus the quorum rounds that
// replicate each member, phase and day entry.
func BenchmarkReplicaDay(b *testing.B) {
	const households = 50
	rs, err := StartReplicaSet(context.Background(),
		WithReplicas(3),
		WithTraceSeed(7),
		WithLedger(NewJournal(io.Discard)),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < households; i++ {
		p := gen.Draw()
		a, err := Connect(context.Background(), rs.Addr(), core.HouseholdID(i), &Truthful{Type: p.TypeWide()},
			WithDialer(rs.Dialer()))
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
	}
	if err := rs.WaitForAgentsContext(context.Background(), households); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.RunDay(i + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// counterFamily sums every label combination of one counter name.
func counterFamily(name string) uint64 {
	var total uint64
	for k, v := range obs.Default().Snapshot().Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
