// Update routing over the partition map. A site that does not host a
// key's partition forwards the update to a replica (owner first) as a
// wire.RouteUpdate; the replica serves it through its own accelerator
// and answers with a RouteReply carrying the outcome. The map is static
// and identical everywhere, so under full replication (one partition on
// every site) nothing is ever forwarded, and a route.update that
// reaches a site not hosting its key is a misconfiguration: counted,
// refused and never applied.
package site

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"avdb/internal/core"
	"avdb/internal/partition"
	"avdb/internal/storage"
	"avdb/internal/twopc"
	"avdb/internal/wire"
)

// ErrNotReplica reports that the replica an update was routed to does
// not host the key's partition (the two sites disagree about the map):
// the update was NOT applied.
var ErrNotReplica = errors.New("site: not a replica for this key's partition")

// RouteStats counts routing activity at one site (all monotonic).
type RouteStats struct {
	// Forwarded updates left this site for a remote replica.
	Forwarded uint64
	// Served updates arrived here via RouteUpdate and were executed.
	Served uint64
	// Misroutes arrived for partitions we do not host and were
	// rejected, not applied.
	Misroutes uint64
}

// PartitionInfo summarizes one hosted partition at this site.
type PartitionInfo struct {
	Partition int           `json:"partition"`
	Owner     wire.SiteID   `json:"owner"`
	Replicas  []wire.SiteID `json:"replicas"`
	Keys      int           `json:"keys"`     // records stored locally
	AVKeys    int           `json:"av_keys"`  // keys with a local AV entry
	AVAvail   int64         `json:"av_avail"` // free volume across those keys
	AVHeld    int64         `json:"av_held"`  // reserved volume
	Stock     int64         `json:"stock"`    // sum of stored amounts
}

// PartitionMap returns the site's partition map (full replication is
// the one-partition map).
func (s *Site) PartitionMap() *partition.Map { return s.pm }

// RouteStats returns a snapshot of the site's routing counters.
func (s *Site) RouteStats() RouteStats {
	return RouteStats{
		Forwarded: s.routeForwarded.Load(),
		Served:    s.routeServed.Load(),
		Misroutes: s.routeMisroutes.Load(),
	}
}

// PartitionStats reports, per hosted partition, how many records and
// how much allowable volume this site holds.
func (s *Site) PartitionStats() []PartitionInfo {
	pm := s.pm
	byPart := make(map[int]*PartitionInfo)
	for _, p := range pm.Hosted(s.cfg.ID) {
		byPart[p] = &PartitionInfo{
			Partition: p,
			Owner:     pm.Owner(p),
			Replicas:  pm.Replicas(p),
		}
	}
	_ = s.eng.Scan(func(rec storage.Record) bool {
		if info := byPart[pm.PartitionOf(rec.Key)]; info != nil {
			info.Keys++
			info.Stock += rec.Amount
		}
		return true
	})
	for _, key := range s.avt.Keys() {
		if info := byPart[pm.PartitionOf(key)]; info != nil {
			info.AVKeys++
			info.AVAvail += s.avt.Avail(key)
			info.AVHeld += s.avt.Held(key)
		}
	}
	out := make([]PartitionInfo, 0, len(byPart))
	for _, info := range byPart {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Partition < out[j].Partition })
	return out
}

// routeErrClass maps an update error to its wire class so the origin
// can hand its caller the same sentinel it would get locally.
// Completion-unknown is checked before aborted: the twopc error chain
// can carry both flavors and the weaker claim must win.
func routeErrClass(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrInsufficientAV):
		return wire.RouteErrInsufficientAV
	case errors.Is(err, twopc.ErrCompletionUnknown):
		return wire.RouteErrUnknown
	case errors.Is(err, twopc.ErrAborted):
		return wire.RouteErrAborted
	default:
		return wire.RouteErrOther
	}
}

// routeErrFromClass is the origin-side inverse of routeErrClass.
func routeErrFromClass(class uint8, target wire.SiteID, reason string) error {
	var sentinel error
	switch class {
	case wire.RouteErrInsufficientAV:
		sentinel = core.ErrInsufficientAV
	case wire.RouteErrUnknown:
		sentinel = twopc.ErrCompletionUnknown
	case wire.RouteErrAborted:
		sentinel = twopc.ErrAborted
	default:
		return fmt.Errorf("site: routed update to site %d failed: %s", target, reason)
	}
	return fmt.Errorf("%w (routed via site %d: %s)", sentinel, target, reason)
}

// forwardUpdate routes an update we do not host to the key's replica
// set: the owner first, the other replicas as transport-failure
// fallbacks.
func (s *Site) forwardUpdate(ctx context.Context, key string, delta int64) (core.Result, error) {
	var lastErr error
	for _, target := range s.pm.ReplicasOf(key) {
		reply, err := s.node.Call(ctx, target, &wire.RouteUpdate{
			MapVersion: s.pm.Version(), Key: key, Delta: delta,
		})
		if err != nil {
			lastErr = err
			continue // dead or partitioned replica: try the next one
		}
		rep, ok := reply.(*wire.RouteReply)
		if !ok {
			return core.Result{}, fmt.Errorf("site: unexpected route reply %T from site %d", reply, target)
		}
		switch rep.Status {
		case wire.RouteOK:
			s.routeForwarded.Add(1)
			s.event("route.forwarded", key, "to=%d path=%d", target, rep.Path)
			return core.Result{
				Path:        core.Path(rep.Path),
				Rounds:      int(rep.Rounds),
				Transferred: rep.Transferred,
				// The commit landed on the serving replica's plane, so
				// the read-your-writes position is *its* {site, lsn}: a
				// token minted from this pair gates that site's read
				// plane.
				LSN:  rep.AppliedLSN,
				Site: rep.AppliedSite,
			}, nil
		case wire.RouteNotReplica:
			return core.Result{}, fmt.Errorf("%w: site %d rejected key %q", ErrNotReplica, target, key)
		default:
			return core.Result{}, routeErrFromClass(rep.ErrClass, target, rep.Reason)
		}
	}
	return core.Result{}, fmt.Errorf("site: no replica for %q reachable: %w", key, lastErr)
}

// handleRouteUpdate serves a routed update from another site. A
// misrouted update — we do not host the key — is rejected without
// touching any state.
func (s *Site) handleRouteUpdate(ctx context.Context, from wire.SiteID, m *wire.RouteUpdate) *wire.RouteReply {
	if !s.pm.HostsKey(s.cfg.ID, m.Key) {
		s.routeMisroutes.Add(1)
		s.event("route.misroute", m.Key, "from=%d", from)
		return &wire.RouteReply{Status: wire.RouteNotReplica,
			Reason: fmt.Sprintf("site %d does not host partition %d", s.cfg.ID, s.pm.PartitionOf(m.Key))}
	}
	res, err := s.updateLocal(ctx, m.Key, m.Delta)
	if err != nil {
		return &wire.RouteReply{Status: wire.RouteErr, ErrClass: routeErrClass(err), Reason: err.Error()}
	}
	s.routeServed.Add(1)
	// Carry our read-your-writes position back so the origin can mint a
	// token that gates *this* site's read plane (the commit never
	// touched the origin's).
	return &wire.RouteReply{
		Status:      wire.RouteOK,
		Path:        uint8(res.Path),
		Rounds:      uint32(res.Rounds),
		Transferred: res.Transferred,
		AppliedSite: res.Site,
		AppliedLSN:  res.LSN,
	}
}
