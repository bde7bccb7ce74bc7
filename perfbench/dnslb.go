package main

import (
	"fmt"
	"math/rand"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/service"
)

// The dnslb-churn workload: the DNS load-balancer pipeline of gigabench's
// dnslb scenario (a VIP fronting a DNAT pool, replies un-NATed by
// ct_nat) with conntrack on, on one shard. Every client sends one query
// per round from a new source port and the backend its connection was
// bound to answers it, so every packet creates or establishes a
// connection and the table, smaller than the live demand, evicts
// continuously.
const (
	dnslbVIP     = 0x0a090001 // 10.9.0.1
	dnslbPort    = 53
	dnslbOutPort = 1   // client-side egress port
	dnslbPortLo  = 100 // backend b egresses on port dnslbPortLo+b
	dnslbPool    = 8
	dnslbRounds  = 20
	dnslbWarm    = 4 // rounds that fill the table, off the clock
)

// dnslbPipeline builds the 4-table LB pipeline over pool:
//
//	classify: replies (+trk+rpl) → reverse; new/est queries to VIP:53 → lb
//	lb:       dnat(pool 1), then match the rewritten destination
//	egress:   per-backend output port
//	reverse:  ct_nat un-rewrites, egress toward the client
func dnslbPipeline(pool []gigaflow.NATTarget) *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("dnslb")
	p.AddTable(0, "classify", gigaflow.NewFieldSet(
		gigaflow.FieldEthType, gigaflow.FieldIPProto, gigaflow.FieldIPDst,
		gigaflow.FieldTpDst, gigaflow.FieldCtState))
	p.AddTable(1, "lb", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(2, "egress", gigaflow.NewFieldSet(gigaflow.FieldIPDst))
	p.AddTable(3, "reverse", gigaflow.NewFieldSet(gigaflow.FieldIPSrc))

	p.MustAddRule(0, gigaflow.MustParseMatch("eth_type=0x0800,ip_proto=17,ct_state=0x11/0x11"),
		20, nil, 3)
	p.MustAddRule(0, gigaflow.MustParseMatch(
		fmt.Sprintf("eth_type=0x0800,ip_proto=17,ip_dst=%d,tp_dst=%d,ct_state=0x01/0x11",
			uint64(dnslbVIP), dnslbPort)),
		10, nil, 1)
	p.MustAddRule(0, gigaflow.MustParseMatch("*"), 1,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)

	p.MustAddRule(1, gigaflow.MustParseMatch("*"), 10,
		[]gigaflow.Action{gigaflow.DNAT(1)}, 2)

	for i, t := range pool {
		m := gigaflow.MustParseMatch(fmt.Sprintf("ip_dst=%d", t.IP))
		p.MustAddRule(2, m, 10,
			[]gigaflow.Action{gigaflow.Output(uint16(dnslbPortLo + i))}, gigaflow.NoTable)
	}
	p.MustAddRule(2, gigaflow.MustParseMatch("*"), 1,
		[]gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)

	p.MustAddRule(3, gigaflow.MustParseMatch("*"), 10,
		[]gigaflow.Action{gigaflow.CtNAT(), gigaflow.Output(dnslbOutPort)}, gigaflow.NoTable)

	p.SetNATPool(1, pool)
	return p
}

// dnslbBackends is the resolver pool: distinct IPs and distinct ports,
// so a wrong or missing port rewrite cannot pass for a correct one.
func dnslbBackends(n int) []gigaflow.NATTarget {
	ts := make([]gigaflow.NATTarget, n)
	for i := range ts {
		ts[i] = gigaflow.NATTarget{IP: 0x0a140001 + uint64(i), Port: 5301 + uint64(i)}
	}
	return ts
}

// dnslbSource alternates query and reply batches: batch 2q carries
// query chunk q (batchSize clients of one round), batch 2q+1 the replies
// to it, built from the query results into a reused buffer.
type dnslbSource struct {
	pool    []gigaflow.NATTarget
	queries []service.Frame // round-major: round r, client c at r*clients+c
	qkeys   []gigaflow.Key  // the query frames' keys, parallel to queries

	replyBuf []byte
	replies  []service.Frame
	replyTo  []int32 // query index each reply answers
}

func (s *dnslbSource) frames(i int) []service.Frame {
	if i%2 == 1 {
		return s.replies
	}
	lo := (i / 2) * batchSize
	return s.queries[lo : lo+batchSize]
}

func (s *dnslbSource) check(i int, b *service.Batch) int {
	if i%2 == 1 {
		return s.checkReplies(b)
	}
	lo := (i / 2) * batchSize
	failed := 0
	s.replyBuf = s.replyBuf[:0]
	s.replies = s.replies[:0]
	s.replyTo = s.replyTo[:0]
	for j := 0; j < b.Len(); j++ {
		r := b.Result(j)
		q := &s.qkeys[lo+j]
		be := int(r.Verdict.Port) - dnslbPortLo
		if r.Err != nil || r.Verdict.Kind != gigaflow.VerdictOutput || be < 0 || be >= len(s.pool) ||
			r.Final.Get(gigaflow.FieldIPDst) != s.pool[be].IP ||
			r.Final.Get(gigaflow.FieldTpDst) != s.pool[be].Port ||
			r.Final.Get(gigaflow.FieldIPSrc) != q.Get(gigaflow.FieldIPSrc) ||
			r.Final.Get(gigaflow.FieldTpSrc) != q.Get(gigaflow.FieldTpSrc) {
			failed++
			continue // no connection to answer
		}
		// The bound backend's answer: the translated tuple inverted.
		rk := q.With(gigaflow.FieldEthSrc, q.Get(gigaflow.FieldEthDst)).
			With(gigaflow.FieldEthDst, q.Get(gigaflow.FieldEthSrc)).
			With(gigaflow.FieldIPSrc, s.pool[be].IP).
			With(gigaflow.FieldIPDst, q.Get(gigaflow.FieldIPSrc)).
			With(gigaflow.FieldTpSrc, s.pool[be].Port).
			With(gigaflow.FieldTpDst, q.Get(gigaflow.FieldTpSrc))
		off := len(s.replyBuf)
		s.replyBuf = wire.AppendFrame(s.replyBuf, rk)
		s.replies = append(s.replies, service.Frame{Data: s.replyBuf[off:len(s.replyBuf):len(s.replyBuf)]})
		s.replyTo = append(s.replyTo, int32(lo+j))
	}
	return failed
}

// checkReplies verifies that every reply was un-NATed to VIP:53 and
// egresses toward the client that sent the query.
func (s *dnslbSource) checkReplies(b *service.Batch) int {
	failed := 0
	for j := 0; j < b.Len(); j++ {
		r := b.Result(j)
		q := &s.qkeys[s.replyTo[j]]
		if r.Err != nil || r.Verdict != (gigaflow.Verdict{Kind: gigaflow.VerdictOutput, Port: dnslbOutPort}) ||
			r.Final.Get(gigaflow.FieldIPSrc) != dnslbVIP ||
			r.Final.Get(gigaflow.FieldTpSrc) != dnslbPort ||
			r.Final.Get(gigaflow.FieldIPDst) != q.Get(gigaflow.FieldIPSrc) ||
			r.Final.Get(gigaflow.FieldTpDst) != q.Get(gigaflow.FieldTpSrc) {
			failed++
		}
	}
	return failed
}

// dnslbWorkload builds 4096 clients × 20 rounds of DNS queries, each
// round from a fresh source port, against a conntrack budget of 4 rounds
// of connections.
func dnslbWorkload(seed int64, scale float64) (*workload, error) {
	clients := scaled(4096/batchSize, scale, 2) * batchSize
	pool := dnslbBackends(dnslbPool)
	rng := rand.New(rand.NewSource(seed))
	src := &dnslbSource{
		pool:     pool,
		queries:  make([]service.Frame, 0, dnslbRounds*clients),
		qkeys:    make([]gigaflow.Key, 0, dnslbRounds*clients),
		replyBuf: make([]byte, 0, batchSize*128),
		replies:  make([]service.Frame, 0, batchSize),
		replyTo:  make([]int32, 0, batchSize),
	}
	base := make([]int, clients)
	for c := range base {
		base[c] = 1024 + rng.Intn(60000)
	}
	var arena []byte
	lens := make([]int, 0, dnslbRounds*clients)
	for r := 0; r < dnslbRounds; r++ {
		for c := 0; c < clients; c++ {
			var k gigaflow.Key
			k = k.With(gigaflow.FieldEthSrc, 0x02aabb000000|uint64(c)).
				With(gigaflow.FieldEthDst, 0x020000000001).
				With(gigaflow.FieldEthType, wire.EtherTypeIPv4).
				With(gigaflow.FieldIPSrc, 0x0a010000|uint64(c)).
				With(gigaflow.FieldIPDst, dnslbVIP).
				With(gigaflow.FieldIPProto, wire.IPProtoUDP).
				With(gigaflow.FieldTpSrc, uint64(base[c]+r)).
				With(gigaflow.FieldTpDst, dnslbPort)
			payload := wire.AppendDNSQuery(nil, uint16(c), fmt.Sprintf("c%d.pool.gigaflow.test", c))
			n := len(arena)
			arena = wire.AppendFramePayload(arena, k, payload)
			src.qkeys = append(src.qkeys, k)
			lens = append(lens, len(arena)-n)
		}
	}
	off := 0
	for i, n := range lens {
		src.queries = append(src.queries, service.Frame{Data: arena[off : off+n : off+n]})
		if k, info := wire.Decode(src.queries[i].Data, 0); k != src.qkeys[i] || !info.OK() {
			return nil, fmt.Errorf("query %d does not round-trip the wire codec", i)
		}
		off += n
	}
	chunks := clients / batchSize
	return &workload{
		cfg: service.Config{
			Workers:           1,
			MicroflowCapacity: 8192,
			Conntrack:         service.ConntrackConfig{Enable: true, MaxConns: dnslbWarm * clients},
		},
		pipe:    dnslbPipeline(pool),
		src:     src,
		batches: 2 * dnslbRounds * chunks,
		warm:    2 * dnslbWarm * chunks,
		ct:      true,
		queries: dnslbRounds * clients,
		info: fmt.Sprintf("dnslb pipeline, %d-backend pool; %d clients x %d rounds (%d warm), conntrack budget %d; 1 shard",
			dnslbPool, clients, dnslbRounds, dnslbWarm, dnslbWarm*clients),
	}, nil
}
