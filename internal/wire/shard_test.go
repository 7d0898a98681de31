package wire

import (
	"encoding/binary"
	"testing"
)

func TestShardTagRoundTrip(t *testing.T) {
	for _, shard := range []int{0, 1, 2, 7, 255, MaxShards} {
		var buf []byte
		buf = AppendShardTag(buf, shard)
		buf = binary.AppendVarint(buf, 3) // from
		buf = binary.AppendVarint(buf, 5) // to
		if shard == 0 && len(buf) != 2 {
			t.Fatalf("shard 0 tag not byte-free: %d bytes", len(buf))
		}
		d := NewDecFor(buf, 8, 4)
		if got := d.ShardTag(); got != shard {
			t.Fatalf("shard %d decoded as %d", shard, got)
		}
		if from := d.Site(); from != 3 {
			t.Fatalf("shard %d: from %d", shard, from)
		}
		if to := d.Site(); to != 5 {
			t.Fatalf("shard %d: to %d", shard, to)
		}
		if d.Err() != nil {
			t.Fatalf("shard %d: %v", shard, d.Err())
		}
	}
}

func TestShardTagHostile(t *testing.T) {
	// varint(-1) is never encoded (shard 0 carries no tag), and a shard
	// beyond MaxShards must not demand per-shard state.
	for _, raw := range [][]byte{
		binary.AppendVarint(nil, -1),
		binary.AppendVarint(nil, int64(-1-(MaxShards+1))),
		{0x80}, // truncated varint
	} {
		d := NewDec(raw)
		d.ShardTag()
		if d.Err() == nil {
			t.Fatalf("tag %v accepted", raw)
		}
	}
}

// TestShardTagLegacyUnconsumed pins that reading a tag off an untagged
// frame consumes nothing: the from varint that follows must decode.
func TestShardTagLegacyUnconsumed(t *testing.T) {
	buf := binary.AppendVarint(nil, 0) // from = site 0
	buf = binary.AppendVarint(buf, 1)  // to
	d := NewDecFor(buf, 2, 1)
	if s := d.ShardTag(); s != 0 {
		t.Fatalf("tag %d on legacy frame", s)
	}
	if from := d.Site(); from != 0 || d.Err() != nil {
		t.Fatalf("from %d err %v", from, d.Err())
	}
}

func TestHelloShardsRoundTrip(t *testing.T) {
	h := Hello{Version: ProtoVersion, Nodes: 4, Resources: 12, Features: FeatDelta, Shards: 4}
	got, err := ParseHello(AppendHello(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip %+v want %+v", got, h)
	}
	// An absurd claimed shard count is rejected outright.
	bad := AppendHello(nil, Hello{Version: ProtoVersion})
	bad = bad[:len(bad)-1] // drop the appended shards=0
	bad = binary.AppendUvarint(bad, MaxShards+1)
	if _, err := ParseHello(bad); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}
