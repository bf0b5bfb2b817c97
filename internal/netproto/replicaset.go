package netproto

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"enki/internal/core"
	"enki/internal/obs"
	"enki/internal/replica"
)

// errReplicaKilled marks a day that failed because the leader replica
// was killed mid-phase; the ReplicaSet fails over and re-runs the day
// instead of surfacing it.
var errReplicaKilled = errors.New("netproto: leader replica killed")

// memberPayload is the replicated record of one household registration.
type memberPayload struct {
	ID    core.HouseholdID `json:"id"`
	Token string           `json:"token"`
	Epoch uint64           `json:"epoch"`
}

// dayData lays out a day entry's payload as uvarint(len(ledger)) ‖
// ledger ‖ record JSON: every replica slices out the ledger bytes it
// journals without parsing anything, and only a redelivery after a
// failover decodes the record.
func dayData(ledger, record []byte) []byte {
	data := make([]byte, 0, binary.MaxVarintLen64+len(ledger)+len(record))
	data = binary.AppendUvarint(data, uint64(len(ledger)))
	data = append(data, ledger...)
	return append(data, record...)
}

// splitDay is dayData's inverse; ok is false when the length prefix
// does not fit the payload.
func splitDay(data []byte) (ledger, record []byte, ok bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, nil, false
	}
	return data[k : k+int(n)], data[k+int(n):], true
}

// lockedBuffer is a mutex-guarded bytes.Buffer: follower apply paths
// run on peer-connection goroutines, so each replica's local ledger
// needs a thread-safe sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// replicaNode is one member of the quorum set: its copy of the log, its
// local audit ledger, and its peer listener. Exactly one live node also
// runs the agent-facing Center; followers hold no agent state at all —
// failover rebuilds it from the committed log.
type replicaNode struct {
	id        int
	log       *replica.Log
	ledgerBuf *lockedBuffer
	ledger    *Journal
	peerLn    net.Listener
	peerAddr  string
	peerConn  net.Conn      // leader-side client conn; guarded by ReplicaSet.repMu
	peerR     *bufio.Reader // reads peerConn's acks; made and dropped with it
	alive     bool          // guarded by ReplicaSet.mu
	center    *Center       // non-nil only while this node leads; guarded by ReplicaSet.mu
}

// ReplicaSet is a settlement center replicated across 2f+1 nodes with a
// quorum journal. The leader runs the ordinary Center protocol with the
// agents and replicates every durable decision — memberships, phase
// boundaries, settled days — to its followers, committing each entry
// once a majority holds it. When the leader dies the lowest live
// replica takes over mid-day: it adopts the longest log among the
// survivors, re-replicates the uncommitted tail, rebuilds the session
// table from the committed member entries, and resumes the day from the
// last committed phase boundary. Agents reconnect with their session
// tokens exactly as after a link cut, so the failover run settles to
// the same ledger bytes as a fault-free one.
type ReplicaSet struct {
	n             int
	quorumTimeout time.Duration
	baseCfg       CenterConfig // leader Center config minus per-takeover seed state
	merged        *Journal     // the caller's WithLedger journal, written exactly once per day
	nodes         []*replicaNode

	mu        sync.Mutex
	leaderID  int
	term      uint64
	failovers uint64
	days      map[int]json.RawMessage // committed days' record JSON, each written once to the merged journal

	repMu sync.Mutex // serializes replication rounds and takeovers
	frame []byte     // the current round's encoded peer frame; guarded by repMu

	// killAt is the chaos hook: called at every named kill point; a
	// true return kills the current leader at that point.
	killAt func(point string, day int, phase string) bool
}

// StartReplicaSet starts a quorum-replicated settlement center:
// WithReplicas(n) nodes (n odd, default 3), the node picked by
// WithReplicaID leading first. Settlement options (WithScheduler,
// WithPricer, WithTraceSeed, ...) configure the leader center exactly
// as they would StartCenter; WithLedger names the merged audit journal,
// written exactly once per committed day no matter how many takeovers
// the day survived.
func StartReplicaSet(ctx context.Context, opts ...Option) (*ReplicaSet, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := o.validate("StartReplicaSet", targetReplica); err != nil {
		return nil, err
	}
	rc := o.replica
	if rc.n < 1 || rc.n%2 == 0 {
		return nil, fmt.Errorf("netproto: replica count %d must be odd (2f+1)", rc.n)
	}
	if rc.leaderID < 0 || rc.leaderID >= rc.n {
		return nil, fmt.Errorf("netproto: initial leader %d out of range [0, %d)", rc.leaderID, rc.n)
	}

	cfg := o.resolveCenter()
	rs := &ReplicaSet{
		n:             rc.n,
		quorumTimeout: rc.quorumTimeout,
		merged:        cfg.Ledger,
		leaderID:      rc.leaderID,
		term:          1,
		days:          make(map[int]json.RawMessage),
	}
	// Replicas journal locally at commit; the leader center must not
	// also append, so the replicated hooks replace the direct ledger.
	cfg.Ledger = nil
	cfg.onMember = rs.onMember
	cfg.onPhase = rs.onPhase
	cfg.onSettle = rs.onSettle
	cfg.beforeDeliver = rs.beforeDeliver
	rs.baseCfg = cfg

	for id := 0; id < rc.n; id++ {
		buf := &lockedBuffer{}
		n := &replicaNode{
			id:        id,
			log:       replica.NewLog(),
			ledgerBuf: buf,
			ledger:    NewJournal(buf),
			alive:     true,
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rs.Close()
			return nil, fmt.Errorf("netproto: replica %d peer listener: %w", id, err)
		}
		n.peerLn = ln
		n.peerAddr = ln.Addr().String()
		go n.serve()
		rs.nodes = append(rs.nodes, n)
	}

	c, err := rs.startLeaderCenter(rs.nodes[rc.leaderID], nil, 0, nil)
	if err != nil {
		rs.Close()
		return nil, err
	}
	rs.mu.Lock()
	rs.nodes[rc.leaderID].center = c
	rs.mu.Unlock()
	rs.publishMetrics()
	return rs, nil
}

// startLeaderCenter builds an agent-facing Center for node n on a fresh
// listener, seeded with the given session table, epoch floor, and
// committed phase boundaries.
func (rs *ReplicaSet) startLeaderCenter(n *replicaNode, seeds []seedSession, epochFloor uint64, resume map[int]*dayResume) (*Center, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netproto: replica %d agent listener: %w", n.id, err)
	}
	cfg := rs.baseCfg
	cfg.seedSessions = seeds
	cfg.epochFloor = epochFloor
	cfg.resume = resume
	c, err := newCenter(ln, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return c, nil
}

// serve accepts peer connections for one replica and handles the
// append/commit/sync protocol on each.
func (n *replicaNode) serve() {
	for {
		conn, err := n.peerLn.Accept()
		if err != nil {
			return
		}
		go n.serveConn(conn)
	}
}

func (n *replicaNode) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	var out []byte
	for {
		m, err := replica.ReadMessage(r)
		if err != nil {
			return
		}
		if out, err = replica.AppendFrame(out[:0], n.handle(m)); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// handle processes one peer frame on the follower side.
func (n *replicaNode) handle(m *replica.Message) *replica.Message {
	switch m.Kind {
	case replica.MsgAppend:
		if !n.log.ObserveTerm(m.Term) {
			return &replica.Message{Kind: replica.MsgAck, From: n.id, Reason: "not leader", LastIndex: n.log.LastIndex()}
		}
		insert := func(e replica.Entry) *replica.Message {
			if err := n.log.Insert(e); err != nil {
				reason := "conflict"
				if errors.Is(err, replica.ErrGap) {
					reason = "gap"
				}
				return &replica.Message{Kind: replica.MsgAck, From: n.id, Reason: reason, LastIndex: n.log.LastIndex()}
			}
			return nil
		}
		if m.Entry != nil {
			if rej := insert(*m.Entry); rej != nil {
				return rej
			}
		}
		for _, e := range m.Entries {
			if rej := insert(e); rej != nil {
				return rej
			}
		}
		return &replica.Message{Kind: replica.MsgAck, From: n.id, OK: true, LastIndex: n.log.LastIndex()}
	case replica.MsgCommit:
		if !n.log.ObserveTerm(m.Term) {
			return &replica.Message{Kind: replica.MsgAck, From: n.id, Reason: "not leader", LastIndex: n.log.LastIndex()}
		}
		newly := n.log.CommitTo(m.Commit)
		n.applyLocal(newly)
		return &replica.Message{Kind: replica.MsgAck, From: n.id, OK: true, Commit: n.log.Commit()}
	case replica.MsgSync:
		return &replica.Message{Kind: replica.MsgLog, From: n.id, Commit: n.log.Commit(), Entries: n.log.Entries()}
	default:
		return &replica.Message{Kind: replica.MsgAck, From: n.id, Reason: "unknown kind " + m.Kind}
	}
}

// applyLocal applies newly committed entries to this replica's local
// audit ledger. Day entries carry the leader's exact ledger bytes, so
// every replica's journal is byte-identical over the committed prefix;
// the record JSON after them is never parsed here.
func (n *replicaNode) applyLocal(newly []replica.Entry) {
	for _, e := range newly {
		if e.Kind != replica.KindDay {
			continue
		}
		if ledger, _, ok := splitDay(e.Data); ok && len(ledger) > 0 {
			_ = n.ledger.appendLine(ledger)
		}
	}
}

// Replicated hooks, installed on every leader Center this set starts.

func (rs *ReplicaSet) onMember(id core.HouseholdID, token string, epoch uint64) error {
	data, err := json.Marshal(memberPayload{ID: id, Token: token, Epoch: epoch})
	if err != nil {
		return err
	}
	return rs.replicate(replica.KindMember, 0, "", data, "")
}

func (rs *ReplicaSet) onPhase(day int, phase string, data json.RawMessage) error {
	if rs.fireKill(phase, day, phase) {
		return errReplicaKilled
	}
	return rs.replicate(replica.KindPhase, day, phase, data, "")
}

func (rs *ReplicaSet) onSettle(tid string, day int, record *DayRecord, ledger json.RawMessage) error {
	if rs.fireKill("settle", day, "settle") {
		return errReplicaKilled
	}
	rec, err := json.Marshal(record)
	if err != nil {
		return err
	}
	return rs.replicate(replica.KindDay, day, "", dayData(ledger, rec), "beforeCommit")
}

func (rs *ReplicaSet) beforeDeliver(day int) error {
	if rs.fireKill("payment", day, "payment") {
		return errReplicaKilled
	}
	return nil
}

// fireKill consults the chaos hook; a true return kills the current
// leader and reports that the caller should abort the day.
func (rs *ReplicaSet) fireKill(point string, day int, phase string) bool {
	rs.mu.Lock()
	hook := rs.killAt
	leader := rs.leaderID
	rs.mu.Unlock()
	if hook == nil || !hook(point, day, phase) {
		return false
	}
	_ = rs.Kill(leader)
	return true
}

// replicate runs one quorum round: append the entry on the leader, push
// it to every live follower, and — once a majority holds it — commit
// everywhere and apply it. killPoint "beforeCommit" is the chaos window
// between a full quorum of acks and the leader's commit: the entry
// survives on the followers and the next leader finishes the job.
func (rs *ReplicaSet) replicate(kind string, day int, phase string, data json.RawMessage, killPoint string) error {
	rs.repMu.Lock()
	defer rs.repMu.Unlock()

	rs.mu.Lock()
	leader := rs.nodes[rs.leaderID]
	term := rs.term
	if !leader.alive {
		rs.mu.Unlock()
		return fmt.Errorf("netproto: replicate %s: %w", kind, ErrNotLeader)
	}
	rs.mu.Unlock()

	e := leader.log.Append(term, uint64(day), kind, phase, data)
	q := rs.appendRound(leader, rs.livePeers(leader.id), term, e)
	if killPoint != "" && rs.fireKill(killPoint, day, phase) {
		return errReplicaKilled
	}
	if !q.Reached() {
		return fmt.Errorf("netproto: replicate %s day %d: %d/%d acks: %w", kind, day, q.Acks(), rs.n, ErrQuorumLost)
	}
	rs.applyCommitted(leader, leader.log.CommitTo(e.Index))
	rs.commitRound(rs.livePeers(leader.id), term, e.Index)
	rs.publishMetrics()
	return nil
}

// appendRound pushes e to the followers in one fan-out and returns the
// quorum of replicas, leader included, that hold it. A follower that
// answers with a gap gets the missing suffix resent.
func (rs *ReplicaSet) appendRound(leader *replicaNode, peers []*replicaNode, term uint64, e replica.Entry) *replica.Quorum {
	q := replica.NewQuorum(rs.n)
	q.Ack(leader.id)
	for i, reply := range rs.round(peers, &replica.Message{Kind: replica.MsgAppend, Term: term, Entry: &e}) {
		if reply != nil && !reply.OK && reply.Reason == "gap" {
			suffix := &replica.Message{Kind: replica.MsgAppend, Term: term, Entries: leader.log.Suffix(reply.LastIndex)}
			reply = rs.round(peers[i:i+1], suffix)[0]
		}
		if reply != nil && reply.OK {
			q.Ack(peers[i].id)
		}
	}
	return q
}

// commitRound raises the followers' commit watermark and waits for
// their acks. It is best-effort: a missed commit is repaired by the
// next round's cumulative watermark or by the next takeover's sync.
func (rs *ReplicaSet) commitRound(peers []*replicaNode, term, index uint64) {
	rs.round(peers, &replica.Message{Kind: replica.MsgCommit, Term: term, Commit: index})
}

// round encodes m once and sends it to every follower in fs before
// reading any reply, so the followers handle it concurrently; each has
// its own connection, so the replies are then read in turn without
// goroutines. Each read gets its own quorum timeout, so a hung follower
// cannot expire the replies already waiting from the others. A
// follower whose send or read fails is retried once over a fresh
// connection; replies[i] is nil when follower i stayed unreachable.
// Callers hold repMu, which guards the frame buffer and the per-node
// client connections.
func (rs *ReplicaSet) round(fs []*replicaNode, m *replica.Message) []*replica.Message {
	replies := make([]*replica.Message, len(fs))
	frame, err := replica.AppendFrame(rs.frame[:0], m)
	rs.frame = frame
	if err != nil {
		return replies
	}
	timeout := rs.quorumTimeout
	sent := make([]bool, len(fs))
	for i, f := range fs {
		sent[i] = f.send(frame, timeout)
	}
	for i, f := range fs {
		if sent[i] {
			replies[i] = f.recv(timeout)
		}
		if replies[i] == nil && f.send(frame, timeout) {
			replies[i] = f.recv(timeout)
		}
	}
	return replies
}

// send writes one frame to n's peer listener, dialing first when n has
// no connection; a failed write drops the connection. A redial gets a
// fresh buffered reader, so no byte of the previous link's stream can
// be read as a reply on the new one.
func (n *replicaNode) send(frame []byte, timeout time.Duration) bool {
	if n.peerConn == nil {
		conn, err := net.DialTimeout("tcp", n.peerAddr, timeout)
		if err != nil {
			return false
		}
		n.setPeer(conn)
	}
	_ = n.peerConn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := n.peerConn.Write(frame); err != nil {
		n.dropConn()
		return false
	}
	return true
}

// recv reads one reply frame through the link's buffered reader, one
// read syscall per ack; a failed read drops the connection, so a late
// reply can never be mistaken for the answer to a later frame.
func (n *replicaNode) recv(timeout time.Duration) *replica.Message {
	_ = n.peerConn.SetReadDeadline(time.Now().Add(timeout))
	reply, err := replica.ReadMessage(n.peerR)
	if err != nil {
		n.dropConn()
		return nil
	}
	return reply
}

// setPeer installs conn as n's leader-side link, with a buffered reader
// of its own for the acks.
func (n *replicaNode) setPeer(conn net.Conn) {
	n.peerConn, n.peerR = conn, bufio.NewReader(conn)
}

func (n *replicaNode) dropConn() {
	if n.peerConn != nil {
		n.peerConn.Close()
		n.peerConn, n.peerR = nil, nil
	}
}

// applyCommitted applies newly committed entries on the leader: day
// entries land in the leader's local ledger and — exactly once per day,
// however many takeovers intervene — in the merged journal and the
// redelivery table, which keeps the record JSON undecoded.
func (rs *ReplicaSet) applyCommitted(leader *replicaNode, newly []replica.Entry) {
	leader.applyLocal(newly)
	for _, e := range newly {
		if e.Kind != replica.KindDay {
			continue
		}
		ledger, record, ok := splitDay(e.Data)
		if !ok {
			continue
		}
		rs.mu.Lock()
		_, applied := rs.days[e.Day]
		if !applied {
			rs.days[e.Day] = record
		}
		rs.mu.Unlock()
		if !applied && rs.merged != nil && len(ledger) > 0 {
			_ = rs.merged.appendLine(ledger)
		}
	}
}

func (rs *ReplicaSet) livePeers(leaderID int) []*replicaNode {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []*replicaNode
	for _, n := range rs.nodes {
		if n.id != leaderID && n.alive {
			out = append(out, n)
		}
	}
	return out
}

// Kill marks a replica dead: its listeners close, its connections drop,
// and it never returns. Killing the leader mid-day is the failover
// path — the next leader-needing call elects the lowest live replica
// and resumes from the replicated journal. Kill never blocks on
// replication state, so chaos hooks may call it from inside a round.
func (rs *ReplicaSet) Kill(id int) error {
	if id < 0 || id >= rs.n {
		return fmt.Errorf("netproto: replica %d out of range [0, %d)", id, rs.n)
	}
	rs.mu.Lock()
	n := rs.nodes[id]
	if !n.alive {
		rs.mu.Unlock()
		return nil
	}
	n.alive = false
	c := n.center
	n.center = nil
	rs.mu.Unlock()
	n.peerLn.Close()
	if c != nil {
		// Close asynchronously: Close waits for connection handlers,
		// which may themselves be blocked inside a replication round.
		go c.Close()
	}
	rs.publishMetrics()
	return nil
}

// leaderCenter returns the live leader's Center, electing and promoting
// a new leader first if the current one is dead.
func (rs *ReplicaSet) leaderCenter() (*Center, error) {
	rs.mu.Lock()
	n := rs.nodes[rs.leaderID]
	if n.alive && n.center != nil {
		c := n.center
		rs.mu.Unlock()
		return c, nil
	}
	rs.mu.Unlock()
	return rs.takeOver()
}

// takeOver promotes the lowest live replica: sync the survivors' logs,
// adopt the longest, commit everything a majority already held,
// re-replicate the uncommitted tail under the original entry terms, and
// rebuild the agent-facing Center from the committed log — session
// table from member entries, day resume state from phase boundaries.
func (rs *ReplicaSet) takeOver() (*Center, error) {
	rs.repMu.Lock()
	defer rs.repMu.Unlock()

	rs.mu.Lock()
	if n := rs.nodes[rs.leaderID]; n.alive && n.center != nil {
		c := n.center
		rs.mu.Unlock()
		return c, nil // another caller already completed the takeover
	}
	var live []int
	for _, n := range rs.nodes {
		if n.alive {
			live = append(live, n.id)
		}
	}
	if len(live) < replica.Majority(rs.n) {
		rs.mu.Unlock()
		return nil, fmt.Errorf("netproto: %d/%d replicas live: %w", len(live), rs.n, ErrQuorumLost)
	}
	id := replica.Elect(live)
	term := rs.term + 1
	rs.mu.Unlock()

	leader := rs.nodes[id]
	leader.log.ObserveTerm(term)

	// Adopt the longest log among the survivors and the highest commit
	// watermark a majority already reached.
	maxCommit := leader.log.Commit()
	peers := rs.livePeers(id)
	for i, reply := range rs.round(peers, &replica.Message{Kind: replica.MsgSync, Term: term}) {
		if reply == nil || reply.Kind != replica.MsgLog {
			continue
		}
		if reply.Commit > maxCommit {
			maxCommit = reply.Commit
		}
		if uint64(len(reply.Entries)) > leader.log.LastIndex() {
			if err := leader.log.Adopt(reply.Entries); err != nil {
				return nil, fmt.Errorf("netproto: takeover adopt from replica %d: %w", peers[i].id, err)
			}
		}
	}
	rs.applyCommitted(leader, leader.log.CommitTo(maxCommit))

	// Finish what the dead leader started: any entry a quorum acked but
	// never committed is re-replicated (original terms) and committed.
	for _, e := range leader.log.Suffix(leader.log.Commit()) {
		if q := rs.appendRound(leader, rs.livePeers(id), term, e); !q.Reached() {
			return nil, fmt.Errorf("netproto: takeover commit index %d: %d/%d acks: %w", e.Index, q.Acks(), rs.n, ErrQuorumLost)
		}
		rs.applyCommitted(leader, leader.log.CommitTo(e.Index))
		rs.commitRound(rs.livePeers(id), term, e.Index)
	}

	// Rebuild the agent-facing state from the committed log.
	var seeds []seedSession
	var epochFloor uint64
	resume := make(map[int]*dayResume)
	for _, e := range leader.log.Entries() {
		switch e.Kind {
		case replica.KindMember:
			var p memberPayload
			if err := json.Unmarshal(e.Data, &p); err != nil {
				continue
			}
			seeds = append(seeds, seedSession{id: p.ID, token: p.Token})
			if p.Epoch > epochFloor {
				epochFloor = p.Epoch
			}
		case replica.KindPhase:
			res := resume[e.Day]
			if res == nil {
				res = &dayResume{}
				resume[e.Day] = res
			}
			switch e.Phase {
			case "preference":
				var p prefPhasePayload
				if err := json.Unmarshal(e.Data, &p); err != nil {
					continue
				}
				res.reports, res.absent = p.Reports, p.Absent
			case "consumption":
				var p consPhasePayload
				if err := json.Unmarshal(e.Data, &p); err != nil {
					continue
				}
				res.consumptions, res.substituted, res.haveCons = p.Consumptions, p.Substituted, true
			}
		}
	}

	c, err := rs.startLeaderCenter(leader, seeds, epochFloor, resume)
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	leader.center = c
	rs.leaderID = id
	rs.term = term
	rs.failovers++
	rs.mu.Unlock()
	obs.Default().Counter(obs.MetricReplicaFailoversTotal).Inc()
	rs.publishMetrics()
	return c, nil
}

// committedDay returns the committed record for day, or nil when day
// has not committed. The record JSON is decoded only here, when a day
// is redelivered after a failover.
func (rs *ReplicaSet) committedDay(day int) (*DayRecord, error) {
	rs.mu.Lock()
	raw, ok := rs.days[day]
	rs.mu.Unlock()
	if !ok {
		return nil, nil
	}
	rec := new(DayRecord)
	if err := json.Unmarshal(raw, rec); err != nil {
		return nil, fmt.Errorf("netproto: committed day %d record: %w", day, err)
	}
	return rec, nil
}

// RunDayContext runs one settlement day against the replica set. A day
// interrupted by a leader death is re-run on the next leader from the
// last committed phase boundary; a day that already committed before
// the death is not re-settled — the new leader only redelivers its
// payments (agents dedupe by day), keeping settlement exactly-once.
func (rs *ReplicaSet) RunDayContext(ctx context.Context, day int) (*DayRecord, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := rs.leaderCenter()
		if err != nil {
			return nil, err
		}
		rec, err := rs.committedDay(day)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			return c.redeliverDay(rec), nil
		}
		rec, err = c.RunDayContext(ctx, day)
		if err != nil {
			if errors.Is(err, errReplicaKilled) || rs.leaderDead(c) {
				continue // fail over and resume the day
			}
			return nil, err
		}
		return rec, nil
	}
}

// RunDay runs one day cycle without cancellation.
func (rs *ReplicaSet) RunDay(day int) (*DayRecord, error) {
	return rs.RunDayContext(context.Background(), day)
}

// leaderDead reports whether c is no longer the live leader's center.
func (rs *ReplicaSet) leaderDead(c *Center) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := rs.nodes[rs.leaderID]
	return !n.alive || n.center != c
}

// WaitForAgentsContext blocks until n agents are connected to the
// current leader, following a failover if the leader dies while
// waiting.
func (rs *ReplicaSet) WaitForAgentsContext(ctx context.Context, n int) error {
	for {
		c, err := rs.leaderCenter()
		if err != nil {
			return err
		}
		err = c.WaitForAgentsContext(ctx, n)
		if err != nil && ctx.Err() == nil && rs.leaderDead(c) {
			continue
		}
		return err
	}
}

// AgentCount returns the number of households with a live connection
// to the current leader.
func (rs *ReplicaSet) AgentCount() int {
	rs.mu.Lock()
	var c *Center
	if n := rs.nodes[rs.leaderID]; n.alive {
		c = n.center
	}
	rs.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.AgentCount()
}

// Addr returns the current leader's agent-facing address. Prefer
// Dialer for agents: the address moves on failover.
func (rs *ReplicaSet) Addr() string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, n := range rs.nodes {
		if n.id == rs.leaderID && n.center != nil {
			return n.center.Addr()
		}
	}
	return ""
}

// Dialer returns a DialFunc that always dials the current leader, for
// Connect's WithDialer: an agent that retries through a failover lands
// on the new leader and resumes its session there.
func (rs *ReplicaSet) Dialer() DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		addr := rs.Addr()
		if addr == "" {
			return nil, fmt.Errorf("netproto: no live leader: %w", ErrQuorumLost)
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// Leader returns the current leader's replica ID.
func (rs *ReplicaSet) Leader() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.leaderID
}

// Term returns the current leadership term (1 at start, +1 per
// takeover).
func (rs *ReplicaSet) Term() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.term
}

// Failovers returns how many takeovers the set has performed.
func (rs *ReplicaSet) Failovers() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.failovers
}

// ReplicaLedger returns a copy of one replica's local audit-ledger
// bytes — the committed day entries as that replica journaled them.
func (rs *ReplicaSet) ReplicaLedger(id int) []byte {
	if id < 0 || id >= rs.n {
		return nil
	}
	return rs.nodes[id].ledgerBuf.Bytes()
}

// ReplicaStatuses implements obs.ReplicaSource for /api/v1/replicas.
func (rs *ReplicaSet) ReplicaStatuses() obs.ReplicaSetStatus {
	rs.mu.Lock()
	leaderID := rs.leaderID
	term := rs.term
	failovers := rs.failovers
	rs.mu.Unlock()
	st := obs.ReplicaSetStatus{Leader: -1, Term: term, Failovers: failovers}
	liveCount := 0
	for _, n := range rs.nodes {
		rs.mu.Lock()
		alive := n.alive
		center := n.center
		rs.mu.Unlock()
		r := obs.ReplicaStatus{
			ID:          n.id,
			Term:        n.log.Term(),
			CommitIndex: n.log.Commit(),
			CommitLag:   n.log.LastIndex() - n.log.Commit(),
			Addr:        n.peerAddr,
		}
		switch {
		case !alive:
			r.Role = "dead"
		case n.id == leaderID && center != nil:
			r.Role = "leader"
			r.Addr = center.Addr()
			st.Leader = n.id
		default:
			r.Role = "follower"
		}
		if alive {
			liveCount++
		}
		st.Replicas = append(st.Replicas, r)
	}
	st.Quorum = liveCount >= replica.Majority(rs.n)
	return st
}

// DayStatus implements obs.StatusSource: the current leader's view,
// with DaysSettled counted from the committed log so a takeover does
// not reset it.
func (rs *ReplicaSet) DayStatus() obs.DayStatus {
	rs.mu.Lock()
	var c *Center
	if n := rs.nodes[rs.leaderID]; n.alive {
		c = n.center
	}
	settled := uint64(len(rs.days))
	rs.mu.Unlock()
	var ds obs.DayStatus
	if c != nil {
		ds = c.DayStatus()
	}
	ds.DaysSettled = settled
	return ds
}

// ShardStatuses implements obs.StatusSource via the current leader.
func (rs *ReplicaSet) ShardStatuses() []obs.ShardStatus {
	rs.mu.Lock()
	var c *Center
	if n := rs.nodes[rs.leaderID]; n.alive {
		c = n.center
	}
	rs.mu.Unlock()
	if c == nil {
		return []obs.ShardStatus{}
	}
	return c.ShardStatuses()
}

// Operator returns the operator plane for the replica set: day and
// shard status from the current leader, replica health, and the merged
// ledger tail.
func (rs *ReplicaSet) Operator() *obs.Operator {
	op := obs.NewOperator(nil)
	op.Status = rs
	op.Replicas = rs
	if rs.merged != nil {
		op.Ledger = rs.merged
	}
	return op
}

// publishMetrics refreshes the per-replica gauges. Every value is a
// pure function of the replicated log and the kill schedule, keeping
// the series inside the determinism contract.
func (rs *ReplicaSet) publishMetrics() {
	rs.mu.Lock()
	leaderID := rs.leaderID
	rs.mu.Unlock()
	reg := obs.Default()
	for _, n := range rs.nodes {
		label := strconv.Itoa(n.id)
		rs.mu.Lock()
		isLeader := n.alive && n.id == leaderID
		rs.mu.Unlock()
		role := 0.0
		if isLeader {
			role = 1.0
		}
		reg.Gauge(obs.MetricReplicaRole, obs.LabelReplica, label).Set(role)
		reg.Gauge(obs.MetricReplicaTerm, obs.LabelReplica, label).Set(float64(n.log.Term()))
		reg.Gauge(obs.MetricReplicaCommitLag, obs.LabelReplica, label).Set(float64(n.log.LastIndex() - n.log.Commit()))
	}
}

// Close shuts down every replica: centers, peer listeners, and client
// connections.
func (rs *ReplicaSet) Close() error {
	for _, n := range rs.nodes {
		rs.mu.Lock()
		c := n.center
		n.center = nil
		n.alive = false
		rs.mu.Unlock()
		if n.peerLn != nil {
			n.peerLn.Close()
		}
		if c != nil {
			c.Close()
		}
		rs.repMu.Lock()
		n.dropConn()
		rs.repMu.Unlock()
	}
	return nil
}
