package netproto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/obs"
	"enki/internal/pricing"
	"enki/internal/sched"
)

// CenterConfig configures a neighborhood center. Prefer the functional
// options of StartCenter; the struct remains public for the deprecated
// NewCenter constructors.
type CenterConfig struct {
	// Scheduler produces allocations from reports; it must be non-nil.
	Scheduler sched.Scheduler
	// Pricer prices hourly load; it must be non-nil.
	Pricer pricing.Pricer
	// Mechanism carries the payment scaling factors.
	Mechanism mechanism.Config
	// Rating is the per-household power rating r in kW.
	Rating float64
	// PhaseDeadline bounds each protocol phase (preference collection,
	// consumption collection). A household that has not answered when
	// the deadline expires is settled dark for the day: excluded if it
	// never reported, imputed via the Eq. 5 defector path if it
	// reported and then vanished. Zero means ReplyTimeout, then
	// DefaultPhaseDeadline.
	PhaseDeadline time.Duration
	// ReplyTimeout is honored when PhaseDeadline is zero.
	//
	// Deprecated: set PhaseDeadline (or use WithPhaseDeadline).
	ReplyTimeout time.Duration
	// TraceSeed parameterizes the deterministic per-day trace IDs:
	// day d's trace is obs.DeriveTraceID(TraceSeed, d), so two centers
	// replaying the same days under the same seed name the same traces.
	// Session-resumption tokens derive from the same seed. Zero is a
	// valid seed.
	TraceSeed uint64
	// Ledger, when non-nil, receives one mechanism.LedgerEntry per
	// settled day — the per-day audit record of every Eq. 4–7
	// intermediate, linked to the day's trace ID. It typically shares
	// a Journal-backed file with nothing else (one JSONL line per day).
	Ledger *Journal
	// FaultPlan, when non-nil, injects deterministic faults into the
	// center's outbound messages, independently per accepted
	// connection. Test/soak tooling only.
	FaultPlan *FaultPlan
	// Codec is the batch-frame codec the center prefers when an agent's
	// hello offers codec negotiation (CodecJSON or CodecBinary; empty
	// behaves as CodecBinary). An agent that does not offer it gets
	// JSON, and connections whose hello offers nothing — a pre-batching
	// agent — stay on the legacy per-message JSON framing regardless.
	Codec string
	// Reporting enables metrics federation: agents and cluster shards
	// piggyback metricsReport snapshots onto the settlement wire, and the
	// center merges them into its federated registry view. Off by
	// default — the extra wire messages shift fault-plan message indices,
	// so chaos plans written without reporting stay valid.
	Reporting bool
	// SLO, when non-empty, attaches an SLO engine with these objectives
	// to the center's operator plane (see Operator). Objectives are
	// validated at start-up.
	SLO []obs.Objective

	// Replication hooks, set only by a ReplicaSet (same package) on the
	// centers it leads with; all nil on a standalone center. Each hook
	// blocks until its entry is quorum-committed, so a day can only
	// settle once a majority of replicas can reproduce it.
	onMember      func(id core.HouseholdID, token string, epoch uint64) error
	onPhase       func(day int, phase string, data json.RawMessage) error
	onSettle      func(tid string, day int, record *DayRecord, entry json.RawMessage) error
	beforeDeliver func(day int) error
	// seedSessions pre-registers the committed membership on a failover
	// center, so agents resume with the tokens the old leader issued.
	seedSessions []seedSession
	// epochFloor continues the registration-epoch sequence past the old
	// leader's committed registrations.
	epochFloor uint64
	// resume carries quorum-committed mid-day state: a new leader skips
	// the phases whose boundary entries committed and recomputes the
	// rest deterministically.
	resume map[int]*dayResume
}

// seedSession is one committed household membership a failover center
// starts with: the session exists (dark) before its agent reconnects.
type seedSession struct {
	id    core.HouseholdID
	token string
}

// dayResume is the committed mid-day state for one settlement day,
// rebuilt from the quorum log's phase-boundary entries on failover.
type dayResume struct {
	reports      []core.Report
	absent       []core.HouseholdID
	consumptions []core.Consumption
	substituted  []bool
	haveCons     bool
}

// prefPhasePayload is the replicated preference phase boundary.
type prefPhasePayload struct {
	Reports []core.Report      `json:"reports"`
	Absent  []core.HouseholdID `json:"absent,omitempty"`
}

// consPhasePayload is the replicated consumption phase boundary.
type consPhasePayload struct {
	Consumptions []core.Consumption `json:"consumptions"`
	Substituted  []bool             `json:"substituted,omitempty"`
}

// DefaultPhaseDeadline is the per-phase wait applied when neither
// PhaseDeadline nor ReplyTimeout is set.
const DefaultPhaseDeadline = 10 * time.Second

// DefaultReplyTimeout is the historical name of the per-phase wait.
//
// Deprecated: use DefaultPhaseDeadline.
const DefaultReplyTimeout = DefaultPhaseDeadline

func (c CenterConfig) validate() error {
	if c.Scheduler == nil {
		return errors.New("netproto: nil scheduler")
	}
	if c.Pricer == nil {
		return errors.New("netproto: nil pricer")
	}
	if c.Rating <= 0 {
		return fmt.Errorf("netproto: rating %g must be positive", c.Rating)
	}
	return c.Mechanism.Validate()
}

// inbound is a message received from a registered agent. The conn
// pointer lets the center discard stale events from a connection that
// has since been replaced by a reconnect.
type inbound struct {
	id   core.HouseholdID
	conn *centerConn
	msg  *Message
	err  error // non-nil when the connection died
}

// centerConn is the center's view of one agent connection.
type centerConn struct {
	id   core.HouseholdID
	conn net.Conn
	inj  *faultInjector
	ws   *wireState // framing negotiated on this connection's hello
	mu   sync.Mutex // serializes writes
}

func (c *centerConn) send(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj.send(c.conn, c.ws, m)
}

// sendLegacy writes m in the legacy framing regardless of negotiation —
// the welcome itself, which both sides must be able to read before the
// negotiated mode takes effect.
func (c *centerConn) sendLegacy(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj.send(c.conn, nil, m)
}

// session is the center's durable state for one household, surviving
// the connections that come and go beneath it. A session with a nil
// conn is dark: its household is still a neighborhood member, but the
// link is down. The center keeps the last unanswered phase message and
// any undelivered payments so a resuming agent (same ID, same token)
// can be replayed into the point of the day it dropped out of.
type session struct {
	id        core.HouseholdID
	token     string
	conn      *centerConn // nil while dark
	lastOut   *Message    // unanswered phase message, replayed on resume
	missedPay []*Message  // payments issued while dark
}

// tokenSalt namespaces session tokens within the obs.DeriveTraceID
// stream so a token never collides with a day's trace ID.
const tokenSalt = 0x746f6b656e // "token"

func sessionToken(seed uint64, id core.HouseholdID, epoch uint64) string {
	return obs.DeriveTraceID(tokenSalt, seed, uint64(id), epoch)
}

// Center is the neighborhood controller: it accepts household agent
// connections and orchestrates the Figure 1 day cycle. Create with
// StartCenter; stop with Close, which shuts the listener, drops every
// connection, and waits for all goroutines to exit.
type Center struct {
	cfg CenterConfig
	ln  net.Listener

	mu       sync.Mutex
	sessions map[core.HouseholdID]*session
	epoch    uint64        // bumped per fresh registration; invalidates old tokens
	joined   chan struct{} // signaled (best effort) on each registration

	inbox chan inbound

	fed  *obs.Federation // non-nil when cfg.Reporting
	slo  *obs.SLOEngine  // non-nil when cfg.SLO is set
	stat centerStatus

	wg      sync.WaitGroup
	closing chan struct{}
	once    sync.Once
}

// centerStatus is the live operator-plane state behind /api/v1/day and
// /api/v1/shards: phase progress updated as the day cycle runs, last
// settled aggregates updated at settle. Its own mutex keeps the status
// readers off the session lock.
type centerStatus struct {
	mu          sync.Mutex
	day         int
	phase       string // "idle" between days
	deadlineAt  time.Time
	members     int
	reported    int
	dark        int
	daysSettled uint64

	lastDay         int
	lastSettled     int
	lastAbsent      int
	lastSubstituted int
	lastCost        float64
	lastRevenue     float64
	lastResidual    float64
	lastPeak        float64
	lastSettleMS    float64
	lastTrace       string
}

// StartCenter starts a center listening on a plain TCP addr (e.g.
// "127.0.0.1:0"), configured by functional options; unset options take
// the paper's defaults (quadratic pricer, greedy scheduler, default
// mechanism parameters). For TLS or other transports, bring your own
// listener via StartCenterListener.
func StartCenter(addr string, opts ...Option) (*Center, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netproto: listen: %w", err)
	}
	c, err := StartCenterListener(ln, opts...)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return c, nil
}

// StartCenterListener starts a center on a caller-provided listener —
// typically a tls.Listener for encrypted smart-meter links. The center
// takes ownership of the listener and closes it on Close.
func StartCenterListener(ln net.Listener, opts ...Option) (*Center, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := o.validate("StartCenter", targetCenter); err != nil {
		return nil, err
	}
	return newCenter(ln, o.resolveCenter())
}

// NewCenter starts a center listening on a plain TCP addr from an
// explicit config struct.
//
// Deprecated: use StartCenter with functional options.
func NewCenter(addr string, cfg CenterConfig) (*Center, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netproto: listen: %w", err)
	}
	c, err := newCenter(ln, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return c, nil
}

// NewCenterWithListener starts a center on a caller-provided listener
// from an explicit config struct.
//
// Deprecated: use StartCenterListener with functional options.
func NewCenterWithListener(ln net.Listener, cfg CenterConfig) (*Center, error) {
	return newCenter(ln, cfg)
}

func newCenter(ln net.Listener, cfg CenterConfig) (*Center, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PhaseDeadline == 0 {
		cfg.PhaseDeadline = cfg.ReplyTimeout
	}
	if cfg.PhaseDeadline == 0 {
		cfg.PhaseDeadline = DefaultPhaseDeadline
	}
	c := &Center{
		cfg:      cfg,
		ln:       ln,
		sessions: make(map[core.HouseholdID]*session),
		joined:   make(chan struct{}, 1),
		inbox:    make(chan inbound),
		closing:  make(chan struct{}),
	}
	c.stat.phase = "idle"
	c.epoch = cfg.epochFloor
	for _, ss := range cfg.seedSessions {
		// Seeded members start dark; their agents resume by token.
		c.sessions[ss.id] = &session{id: ss.id, token: ss.token}
	}
	if cfg.Reporting {
		c.fed = obs.NewFederation(obs.Default())
	}
	if len(cfg.SLO) > 0 {
		slo, err := obs.NewSLOEngine(obs.Default(), cfg.SLO)
		if err != nil {
			return nil, err
		}
		c.slo = slo
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Federation returns the center's federated metrics view, or nil when
// metrics reporting is off.
func (c *Center) Federation() *obs.Federation { return c.fed }

// Operator assembles the center's operator plane: the default registry,
// this center as the status source, the audit ledger's tail when a
// ledger is configured, plus the federation and SLO engine when enabled.
// Serve it with obs.ServeOperator; the caller flips SetReady once
// enrollment is complete.
func (c *Center) Operator() *obs.Operator {
	op := obs.NewOperator(nil)
	op.Status = c
	if c.cfg.Ledger != nil {
		op.Ledger = c.cfg.Ledger
	}
	op.Federation = c.fed
	op.SLO = c.slo
	return op
}

// Addr returns the listening address, for agents to dial.
func (c *Center) Addr() string { return c.ln.Addr().String() }

// Close shuts down the center and waits for all goroutines to exit.
func (c *Center) Close() error {
	c.once.Do(func() {
		close(c.closing)
		c.ln.Close()
		c.mu.Lock()
		for _, s := range c.sessions {
			if s.conn != nil {
				s.conn.conn.Close()
			}
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	return nil
}

// AgentCount returns the number of households with a live connection
// (dark sessions awaiting resume are not counted).
func (c *Center) AgentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.sessions {
		if s.conn != nil {
			n++
		}
	}
	return n
}

// WaitForAgentsContext blocks until n agents are connected or the
// context is done.
func (c *Center) WaitForAgentsContext(ctx context.Context, n int) error {
	for {
		if c.AgentCount() >= n {
			return nil
		}
		select {
		case <-c.joined:
		case <-ctx.Done():
			return fmt.Errorf("netproto: %d of %d agents: %w", c.AgentCount(), n, ctx.Err())
		case <-c.closing:
			return errors.New("netproto: center closed")
		}
	}
}

// WaitForAgents blocks until n agents have registered or the timeout
// elapses.
//
// Deprecated: use WaitForAgentsContext.
func (c *Center) WaitForAgents(n int, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := c.WaitForAgentsContext(ctx, n); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("netproto: %d of %d agents after %v", c.AgentCount(), n, timeout)
		}
		return err
	}
	return nil
}

func (c *Center) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// handleConn performs registration or session resumption, then pumps
// messages into the inbox. A tokenless hello is a fresh agent: it may
// claim a dark session's ID (replacing that session outright) but never
// a live one. A hello bearing the session's token resumes it — the
// center reattaches the connection and replays the phase messages the
// agent missed while dark.
func (c *Center) handleConn(conn net.Conn) {
	defer c.wg.Done()

	hello, err := ReadMessage(conn)
	if err != nil || hello.Kind != KindHello {
		conn.Close()
		return
	}
	cc := &centerConn{id: hello.ID, conn: conn, inj: newFaultInjector(c.cfg.FaultPlan)}
	var codecName string
	if codec := selectCodec(c.cfg.Codec, hello.Codecs); codec != nil {
		cc.ws = newWireState(codec, conn)
		codecName = codec.Name()
	}

	c.mu.Lock()
	s := c.sessions[hello.ID]
	resume := false
	fresh := false
	switch {
	case s != nil && s.conn != nil:
		c.mu.Unlock()
		_ = WriteMessage(conn, &Message{Kind: KindError, ID: hello.ID, Err: "duplicate household id"})
		conn.Close()
		return
	case s != nil && hello.Token != "":
		if hello.Token != s.token {
			c.mu.Unlock()
			_ = WriteMessage(conn, &Message{Kind: KindError, ID: hello.ID, Err: "bad session token"})
			conn.Close()
			return
		}
		resume = true
	default:
		c.epoch++
		s = &session{id: hello.ID, token: sessionToken(c.cfg.TraceSeed, hello.ID, c.epoch)}
		c.sessions[hello.ID] = s
		fresh = true
	}
	s.conn = cc
	var replay []*Message
	if resume {
		if s.lastOut != nil {
			replay = append(replay, s.lastOut)
		}
		replay = append(replay, s.missedPay...)
		s.missedPay = nil
	}
	token := s.token
	epoch := c.epoch
	c.mu.Unlock()

	// A replicated center commits the membership before welcoming: the
	// welcome is the promise that a failover leader will recognize this
	// token, so it must not be issued until a majority holds the entry.
	if fresh && c.cfg.onMember != nil {
		if err := c.cfg.onMember(hello.ID, token, epoch); err != nil {
			_ = WriteMessage(conn, &Message{Kind: KindError, ID: hello.ID,
				Err: "registration not replicated: " + err.Error()})
			c.mu.Lock()
			if c.sessions[hello.ID] == s {
				delete(c.sessions, hello.ID)
			}
			c.mu.Unlock()
			conn.Close()
			return
		}
	}

	if err := cc.sendLegacy(&Message{Kind: KindWelcome, ID: hello.ID, Token: token, Codec: codecName}); err != nil {
		c.markDark(cc)
		return
	}
	if resume {
		obs.Default().Counter(obs.MetricNetResumesTotal, obs.LabelSide, obs.SideCenter).Inc()
		if rec := obs.DefaultRecorder(); rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.EventResume, Shard: -1, Action: obs.SideCenter, N: int(hello.ID)})
		}
		for _, m := range replay {
			if err := cc.send(m); err != nil {
				c.markDark(cc)
				return
			}
			obs.Default().Counter(obs.MetricNetReplaysTotal).Inc()
		}
		if rec := obs.DefaultRecorder(); rec.Enabled() && len(replay) > 0 {
			rec.Record(obs.Event{Kind: obs.EventReplay, Shard: -1, N: len(replay)})
		}
	}
	select {
	case c.joined <- struct{}{}:
	default:
	}

	for {
		m, err := cc.ws.read(conn)
		if err != nil {
			c.markDark(cc)
			select {
			case c.inbox <- inbound{id: cc.id, conn: cc, err: err}:
			case <-c.closing:
			}
			return
		}
		select {
		case c.inbox <- inbound{id: cc.id, conn: cc, msg: m}:
		case <-c.closing:
			return
		}
	}
}

// markDark closes cc and detaches it from its session (if cc is still
// the session's current connection). The session itself survives so the
// agent can resume and the day can settle degraded.
func (c *Center) markDark(cc *centerConn) {
	cc.conn.Close()
	c.mu.Lock()
	detached := false
	if s := c.sessions[cc.id]; s != nil && s.conn == cc {
		s.conn = nil
		detached = true
	}
	c.mu.Unlock()
	if rec := obs.DefaultRecorder(); detached && rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventDark, Shard: -1, N: int(cc.id)})
	}
}

// currentConn returns the live connection registered for id, or nil.
func (c *Center) currentConn(id core.HouseholdID) *centerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.sessions[id]; s != nil {
		return s.conn
	}
	return nil
}

// clearLastOut discards the pending replay message once the household
// has answered it.
func (c *Center) clearLastOut(id core.HouseholdID) {
	c.mu.Lock()
	if s := c.sessions[id]; s != nil {
		s.lastOut = nil
	}
	c.mu.Unlock()
}

// DayRecord is the full outcome of one protocol day. It is the unit of
// persistence (see Journal), hence the JSON tags.
type DayRecord struct {
	Day     int    `json:"day"`
	TraceID string `json:"traceId,omitempty"` // joins the record to its trace and ledger entry

	Reports      []core.Report      `json:"reports"`
	Assignments  []core.Assignment  `json:"assignments"`
	Consumptions []core.Consumption `json:"consumptions"`
	Payments     []float64          `json:"payments"` // aligned with Reports
	Flexibility  []float64          `json:"flexibility"`
	Defection    []float64          `json:"defection"`
	SocialCost   []float64          `json:"socialCost"`
	Cost         float64            `json:"cost"` // κ(ω)
	Peak         float64            `json:"peak"` // peak hourly load

	// Substituted marks the reports whose consumption the center
	// imputed (household dark past the consumption deadline); nil on
	// fault-free days so their journal bytes are unchanged.
	Substituted []bool `json:"substituted,omitempty"`
	// Absent lists households that were members at dawn but never
	// reported a preference: they sat the day out entirely (no
	// allocation, no bill). Nil on fault-free days.
	Absent []core.HouseholdID `json:"absent,omitempty"`
}

// RunDayContext orchestrates one full day cycle over the current
// neighborhood members: request → preferences → allocation →
// consumptions → payments. It is not safe for concurrent use with
// itself.
//
// The day degrades rather than fails when households go dark: a member
// that never reports is recorded Absent and excluded; one that reports
// and then vanishes past the consumption deadline is settled as a
// defector from its journaled report (consumption imputed by
// mechanism.DarkConsumption, flexibility forfeited), keeping the
// Theorem 1 budget identity exact. Protocol violations from live
// agents (malformed frames, out-of-phase messages, wrong-duration
// consumptions) still fail the day — degradation is for darkness, not
// for misbehaviour.
//
// The whole day is one trace: a root day span (trace ID derived from
// TraceSeed and the day number) with one child span per protocol phase,
// and the phase span's context rides on every outgoing message so the
// agents' spans join the same trace across the process boundary.
func (c *Center) RunDayContext(ctx context.Context, day int) (*DayRecord, error) {
	start := time.Now()
	tid := obs.DeriveTraceID(c.cfg.TraceSeed, uint64(day))
	daySpan := obs.DefaultTracer().StartTrace(tid, obs.SpanNetDay, "day", strconv.Itoa(day))
	defer daySpan.End()

	members := c.memberIDs()
	if len(members) == 0 {
		return nil, errors.New("netproto: no registered agents")
	}

	res := c.cfg.resume[day]

	var reports []core.Report
	var absent []core.HouseholdID
	if res != nil && res.reports != nil {
		// The preference boundary is quorum-committed: a failover leader
		// resumes from it instead of re-running the round, so the day's
		// inputs are exactly the ones a majority can reproduce.
		reports, absent = res.reports, res.absent
	} else {
		prefMsgs, prefDark, err := c.phase(ctx, daySpan, tid, members, KindPreference, day,
			func(id core.HouseholdID, tc *obs.TraceContext) *Message {
				return &Message{Kind: KindRequest, ID: id, Day: day, Trace: tc}
			})
		if err != nil {
			return nil, err
		}
		absent = prefDark
		reports = make([]core.Report, 0, len(prefMsgs))
		for _, id := range members {
			m, ok := prefMsgs[id]
			if !ok {
				continue // dark past the deadline: absent for the day
			}
			if m.Pref == nil {
				return nil, fmt.Errorf("netproto: household %d sent preference frame without pref", id)
			}
			reports = append(reports, core.Report{ID: id, Pref: *m.Pref})
		}
		if len(reports) == 0 {
			return nil, fmt.Errorf("netproto: day %d: no household reported a preference (all %d dark)", day, len(members))
		}
		if err := c.commitPhase(day, "preference", prefPhasePayload{Reports: reports, Absent: absent}); err != nil {
			return nil, err
		}
	}

	assignments, err := c.cfg.Scheduler.Allocate(reports)
	if err != nil {
		return nil, fmt.Errorf("netproto: allocate: %w", err)
	}
	byID := make(map[core.HouseholdID]core.Interval, len(assignments))
	for _, a := range assignments {
		byID[a.ID] = a.Interval
	}
	active := make([]core.HouseholdID, len(reports))
	for i, r := range reports {
		active[i] = r.ID
	}
	var consumptions []core.Consumption
	var substituted []bool
	if res != nil && res.haveCons {
		consumptions, substituted = res.consumptions, res.substituted
	} else {
		consMsgs, consDark, err := c.phase(ctx, daySpan, tid, active, KindConsumption, day,
			func(id core.HouseholdID, tc *obs.TraceContext) *Message {
				iv := byID[id]
				return &Message{Kind: KindAllocation, ID: id, Day: day, Interval: &iv, Trace: tc}
			})
		if err != nil {
			return nil, err
		}
		darkSet := make(map[core.HouseholdID]bool, len(consDark))
		for _, id := range consDark {
			darkSet[id] = true
		}
		consumptions = make([]core.Consumption, len(reports))
		for i, r := range reports {
			if darkSet[r.ID] {
				if substituted == nil {
					substituted = make([]bool, len(reports))
				}
				substituted[i] = true
				consumptions[i] = core.Consumption{ID: r.ID, Interval: mechanism.DarkConsumption(r.Pref)}
				continue
			}
			m := consMsgs[r.ID]
			if m.Interval == nil {
				return nil, fmt.Errorf("netproto: household %d sent consumption frame without interval", r.ID)
			}
			if m.Interval.Len() != r.Pref.Duration {
				return nil, fmt.Errorf("netproto: household %d consumed %d slots, declared %d",
					r.ID, m.Interval.Len(), r.Pref.Duration)
			}
			consumptions[i] = core.Consumption{ID: r.ID, Interval: *m.Interval}
		}
		if err := c.commitPhase(day, "consumption", consPhasePayload{Consumptions: consumptions, Substituted: substituted}); err != nil {
			return nil, err
		}
	}
	nSub := 0
	for _, sub := range substituted {
		if sub {
			nSub++
		}
	}

	c.stat.setPhase("settling")
	settleSpan := daySpan.StartChild(obs.SpanNetSettle, "day", strconv.Itoa(day))
	record, entry, err := c.settle(tid, day, reports, assignments, consumptions, substituted)
	settleSpan.End()
	if err != nil {
		return nil, err
	}
	if len(absent) > 0 {
		record.Absent = absent
	}

	// Commit the settled day. A replicated center blocks here until a
	// majority holds the day entry — the ledger append happens in the
	// apply path on every replica — while a standalone center appends
	// directly to its ledger.
	if c.cfg.onSettle != nil {
		raw, err := entry.AppendJSON(nil)
		if err != nil {
			return nil, fmt.Errorf("netproto: encode ledger entry: %w", err)
		}
		if err := c.cfg.onSettle(tid, day, record, raw); err != nil {
			return nil, err
		}
	} else if c.cfg.Ledger != nil {
		if err := c.cfg.Ledger.AppendValue(entry); err != nil {
			return nil, fmt.Errorf("netproto: audit ledger: %w", err)
		}
	}
	if c.cfg.beforeDeliver != nil {
		if err := c.cfg.beforeDeliver(day); err != nil {
			return nil, err
		}
	}

	paySpan := daySpan.StartChild(obs.SpanNetPhase, obs.LabelPhase, string(KindPayment), "day", strconv.Itoa(day))
	payCtx := wireTrace(tid, paySpan)
	for i, r := range reports {
		detail := &PaymentDetail{
			Amount:      record.Payments[i],
			Flexibility: record.Flexibility[i],
			Defection:   record.Defection[i],
			SocialCost:  record.SocialCost[i],
			TotalCost:   record.Cost,
			PeakLoad:    record.Peak,
		}
		c.deliverPayment(&Message{Kind: KindPayment, ID: r.ID, Day: day, Payment: detail, Trace: payCtx})
	}
	paySpan.End()

	obs.Default().Counter(obs.MetricNetDaysTotal).Inc()
	if nSub > 0 || len(absent) > 0 {
		obs.Default().Counter(obs.MetricNetDegradedDaysTotal).Inc()
		if nSub > 0 {
			obs.Default().Counter(obs.MetricNetSubstitutionsTotal).Add(uint64(nSub))
		}
	}
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		action := "ok"
		if nSub > 0 || len(absent) > 0 {
			action = "degraded"
		}
		rec.Record(obs.Event{Kind: obs.EventDay, Day: day, Shard: -1, Action: action, N: len(reports), TraceID: tid})
	}

	settleMS := float64(time.Since(start).Nanoseconds()) / 1e6
	obs.Default().Histogram(obs.MetricNetDaySettleMS, obs.LatencyBucketsMS).ObserveExemplar(settleMS, tid)
	var revenue float64
	for _, p := range record.Payments {
		revenue += p
	}
	s := &c.stat
	s.mu.Lock()
	s.phase = "settled"
	s.daysSettled++
	s.lastDay = day
	s.lastTrace = tid
	s.lastSettled = len(reports)
	s.lastAbsent = len(absent)
	s.lastSubstituted = nSub
	s.lastCost = record.Cost
	s.lastRevenue = revenue
	s.lastResidual = revenue - c.cfg.Mechanism.Xi*record.Cost
	s.lastPeak = record.Peak
	s.lastSettleMS = settleMS
	s.mu.Unlock()
	return record, nil
}

// RunDay runs one day cycle without cancellation.
//
// Deprecated: use RunDayContext.
func (c *Center) RunDay(day int) (*DayRecord, error) {
	return c.RunDayContext(context.Background(), day)
}

// deliverPayment sends a settlement best-effort: a dark household's
// payment is queued on its session and replayed when it resumes. A
// payment can never fail the day — the ledger already holds the
// authoritative record.
func (c *Center) deliverPayment(m *Message) {
	c.mu.Lock()
	s := c.sessions[m.ID]
	if s == nil {
		c.mu.Unlock()
		return
	}
	cc := s.conn
	if cc == nil {
		s.missedPay = append(s.missedPay, m)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	if err := cc.send(m); err != nil {
		c.markDark(cc)
		c.mu.Lock()
		if c.sessions[m.ID] == s {
			s.missedPay = append(s.missedPay, m)
		}
		c.mu.Unlock()
	}
}

// wireTrace builds the trace context stamped on outgoing messages: the
// day's deterministic trace ID always travels (the ledger links through
// it even with tracing off), the parent span ID only when a span is
// being recorded.
func wireTrace(tid string, span *obs.ActiveSpan) *obs.TraceContext {
	return &obs.TraceContext{TraceID: tid, SpanID: span.ID()}
}

// settle computes scores, payments, and aggregates for a completed day,
// and appends the day's audit-ledger entry when a ledger is configured.
// Substituted households forfeit their flexibility reward regardless of
// where their imputed consumption landed (they never confirmed
// compliance), putting them on the Eq. 5 defector path.
func (c *Center) settle(tid string, day int, reports []core.Report, assignments []core.Assignment, consumptions []core.Consumption, substituted []bool) (*DayRecord, *mechanism.LedgerEntry, error) {
	prefs := make([]core.Preference, len(reports))
	assigned := make([]core.Interval, len(reports))
	consumed := make([]core.Interval, len(reports))
	for i := range reports {
		prefs[i] = reports[i].Pref
		assigned[i] = assignments[i].Interval
		consumed[i] = consumptions[i].Interval
	}
	predicted := mechanism.FlexibilityScores(prefs)
	flex := mechanism.ActualFlexibilities(predicted, assigned, consumed)
	for i := range substituted {
		if substituted[i] {
			flex[i] = 0
		}
	}
	defect := mechanism.DefectionScores(c.cfg.Pricer, c.cfg.Rating, assigned, consumed)
	psi, err := mechanism.SocialCostScores(flex, defect, c.cfg.Mechanism.K)
	if err != nil {
		return nil, nil, fmt.Errorf("netproto: social cost: %w", err)
	}
	load := core.LoadOf(consumed, c.cfg.Rating)
	cost := pricing.Cost(c.cfg.Pricer, load)
	payments, err := mechanism.Payments(psi, c.cfg.Mechanism.Xi, cost)
	if err != nil {
		return nil, nil, fmt.Errorf("netproto: payments: %w", err)
	}
	mechanism.RecordSettlementMetrics(flex, defect, psi, payments, cost, c.cfg.Mechanism.Xi, load.PAR())
	var entry *mechanism.LedgerEntry
	if c.cfg.Ledger != nil || c.cfg.onSettle != nil {
		e := mechanism.BuildLedgerEntry(tid, day, c.cfg.Mechanism, c.cfg.Rating,
			reports, assigned, consumed, substituted, predicted, flex, defect, psi, payments, cost, load.Peak())
		entry = &e
	}
	return &DayRecord{
		Day:          day,
		TraceID:      tid,
		Reports:      reports,
		Assignments:  assignments,
		Consumptions: consumptions,
		Payments:     payments,
		Flexibility:  flex,
		Defection:    defect,
		SocialCost:   psi,
		Cost:         cost,
		Peak:         load.Peak(),
		Substituted:  substituted,
	}, entry, nil
}

// commitPhase replicates a phase boundary through the onPhase hook, if one is
// installed. The payload is marshalled once so every replica journals the same
// bytes.
func (c *Center) commitPhase(day int, phase string, payload any) error {
	if c.cfg.onPhase == nil {
		return nil
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("netproto: encode %s phase: %w", phase, err)
	}
	return c.cfg.onPhase(day, phase, data)
}

// redeliverDay re-issues payment notices for a day that was already committed
// to the replicated journal. Delivery is best-effort, exactly like the normal
// payment phase: agents that are connected receive the notice immediately,
// dark sessions have it queued for resume, and agents dedupe by day.
func (c *Center) redeliverDay(record *DayRecord) *DayRecord {
	c.stat.setPhase("payment")
	trace := &obs.TraceContext{TraceID: record.TraceID}
	for i, r := range record.Reports {
		if i >= len(record.Payments) {
			break
		}
		detail := &PaymentDetail{
			Amount:      record.Payments[i],
			Flexibility: record.Flexibility[i],
			Defection:   record.Defection[i],
			SocialCost:  record.SocialCost[i],
			TotalCost:   record.Cost,
			PeakLoad:    record.Peak,
		}
		c.deliverPayment(&Message{Kind: KindPayment, ID: r.ID, Day: record.Day, Payment: detail, Trace: trace})
	}
	c.stat.setPhase("settled")
	return record
}

func (s *centerStatus) startPhase(day int, phase string, members int, deadline time.Duration) {
	s.mu.Lock()
	s.day, s.phase, s.members = day, phase, members
	s.deadlineAt = time.Now().Add(deadline)
	s.reported, s.dark = 0, 0
	s.mu.Unlock()
}

func (s *centerStatus) setPhase(phase string) {
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
}

func (s *centerStatus) noteReported() {
	s.mu.Lock()
	s.reported++
	s.mu.Unlock()
}

func (s *centerStatus) noteDark(n int) {
	s.mu.Lock()
	s.dark = n
	s.mu.Unlock()
}

// DayStatus implements obs.StatusSource: the current day, phase, and
// reporting progress for /api/v1/day.
func (c *Center) DayStatus() obs.DayStatus {
	s := &c.stat
	s.mu.Lock()
	defer s.mu.Unlock()
	var remaining float64
	if s.phase != "idle" && s.phase != "settled" {
		if d := time.Until(s.deadlineAt); d > 0 {
			remaining = float64(d.Nanoseconds()) / 1e6
		}
	}
	return obs.DayStatus{
		Day:                 s.day,
		Phase:               s.phase,
		DeadlineRemainingMS: remaining,
		Members:             s.members,
		Reported:            s.reported,
		Dark:                s.dark,
		DaysSettled:         s.daysSettled,
		LastCost:            s.lastCost,
		LastRevenue:         s.lastRevenue,
		LastResidual:        s.lastResidual,
		LastPeak:            s.lastPeak,
	}
}

// ShardStatuses implements obs.StatusSource. A single-neighborhood
// center is its own shard 0, so enkiops renders the same table against
// an enkid daemon and a sharded cluster.
func (c *Center) ShardStatuses() []obs.ShardStatus {
	s := &c.stat
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.daysSettled == 0 {
		return []obs.ShardStatus{}
	}
	return []obs.ShardStatus{{
		Shard:        0,
		Healthy:      true,
		TraceID:      s.lastTrace,
		LastDay:      s.lastDay,
		Households:   s.lastSettled + s.lastAbsent,
		Settled:      s.lastSettled,
		Absent:       s.lastAbsent,
		Substituted:  s.lastSubstituted,
		Cost:         s.lastCost,
		Revenue:      s.lastRevenue,
		Residual:     s.lastResidual,
		LastSettleMS: s.lastSettleMS,
	}}
}

// memberIDs returns every neighborhood member — live or dark — sorted
// by household ID. Dark members stay members: they may resume mid-day,
// and until then each day settles around them.
func (c *Center) memberIDs() []core.HouseholdID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.HouseholdID, 0, len(c.sessions))
	for id := range c.sessions {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// phase runs one request/response round of the day cycle under its own
// child span: it sends one message per member — stamped with the phase
// span's trace context so agent-side spans parent under it — then
// collects replies of the wanted kind until every member has answered
// or the phase deadline expires. It returns the replies plus the sorted
// IDs of members that stayed dark; only protocol violations (not
// darkness) produce an error.
func (c *Center) phase(ctx context.Context, daySpan *obs.ActiveSpan, tid string, members []core.HouseholdID, want Kind, day int,
	build func(id core.HouseholdID, tc *obs.TraceContext) *Message) (map[core.HouseholdID]*Message, []core.HouseholdID, error) {
	span := daySpan.StartChild(obs.SpanNetPhase, obs.LabelPhase, string(want), "day", strconv.Itoa(day))
	defer span.End()
	c.stat.startPhase(day, string(want), len(members), c.cfg.PhaseDeadline)
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventPhase, Day: day, Shard: -1, Phase: string(want), Action: "start", N: len(members)})
	}
	tc := wireTrace(tid, span)
	for _, id := range members {
		m := build(id, tc)
		c.mu.Lock()
		s := c.sessions[id]
		var cc *centerConn
		if s != nil {
			s.lastOut = m // replayed if the household resumes mid-phase
			cc = s.conn
		}
		c.mu.Unlock()
		if cc == nil {
			continue // dark; the message waits on the session for a resume
		}
		if err := cc.send(m); err != nil {
			c.markDark(cc)
		}
	}
	return c.collect(ctx, members, want, day)
}

// earlierReply reports whether kind is the reply of a phase that
// precedes the want phase within the same day — a late or duplicated
// answer to a round the center has already closed, which resume replays
// and FaultDup can legitimately produce and the collector must ignore.
func earlierReply(kind, want Kind) bool {
	return want == KindConsumption && kind == KindPreference
}

// collect waits until every member has sent a message of the wanted
// kind for the given day, or the phase deadline expires — whichever
// comes first. Members dark at the deadline are returned in the dark
// list rather than failing the day; a disconnect mid-phase keeps the
// member pending until the deadline so a resuming agent can still
// answer. Wrong-kind or future-day messages from live agents are
// protocol violations and error the day.
func (c *Center) collect(ctx context.Context, members []core.HouseholdID, want Kind, day int) (map[core.HouseholdID]*Message, []core.HouseholdID, error) {
	start := time.Now()
	defer func() {
		obs.Default().Histogram(obs.MetricNetPhaseLatencyMS, obs.LatencyBucketsMS, obs.LabelPhase, string(want)).
			Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	}()
	deadlineHist := obs.Default().Histogram(obs.MetricNetPhaseDeadlineRemainingMS, obs.LatencyBucketsMS, obs.LabelPhase, string(want))

	pending := make(map[core.HouseholdID]bool, len(members))
	for _, id := range members {
		pending[id] = true
	}
	got := make(map[core.HouseholdID]*Message, len(members))
	timer := time.NewTimer(c.cfg.PhaseDeadline)
	defer timer.Stop()

	for len(pending) > 0 {
		select {
		case in := <-c.inbox:
			if c.currentConn(in.id) != in.conn {
				// Stale event from a connection that has been replaced
				// (reconnect) or already marked dark: ignore it.
				continue
			}
			if in.err != nil {
				// The connection died; handleConn already marked the
				// session dark. Keep the member pending — it may resume
				// and answer before the deadline.
				continue
			}
			m := in.msg
			switch {
			case m.Kind == KindMetricsReport:
				// Federated snapshots are cumulative, so day skew is
				// harmless; merge (when reporting is on) and move on.
				if c.fed != nil {
					c.fed.Report(m.Metrics)
				}
				continue
			case m.Day < day:
				continue // stale reply from a previous day's replay
			case m.Day > day:
				return nil, nil, fmt.Errorf("netproto: unexpected %s(day %d) from %d during %s phase",
					m.Kind, m.Day, in.id, want)
			case m.Kind == want:
				if !pending[in.id] {
					continue // duplicate delivery (FaultDup or replay overlap)
				}
				delete(pending, in.id)
				got[in.id] = m
				c.clearLastOut(in.id)
				c.stat.noteReported()
			case earlierReply(m.Kind, want):
				continue // late answer to an already-closed round
			default:
				return nil, nil, fmt.Errorf("netproto: unexpected %s(day %d) from %d during %s phase",
					m.Kind, m.Day, in.id, want)
			}
		case <-timer.C:
			obs.Default().Counter(obs.MetricNetTimeoutsTotal, obs.LabelPhase, string(want)).Inc()
			deadlineHist.Observe(0)
			dark := make([]core.HouseholdID, 0, len(pending))
			for id := range pending {
				dark = append(dark, id)
			}
			sort.Slice(dark, func(i, j int) bool { return dark[i] < dark[j] })
			c.stat.noteDark(len(dark))
			if rec := obs.DefaultRecorder(); rec.Enabled() {
				rec.Record(obs.Event{Kind: obs.EventPhase, Day: day, Shard: -1, Phase: string(want), Action: "deadline", N: len(dark)})
			}
			return got, dark, nil
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("netproto: %s phase: %w", want, ctx.Err())
		case <-c.closing:
			return nil, nil, errors.New("netproto: center closed")
		}
	}
	if remaining := c.cfg.PhaseDeadline - time.Since(start); remaining > 0 {
		deadlineHist.Observe(float64(remaining.Nanoseconds()) / 1e6)
	}
	return got, nil, nil
}
