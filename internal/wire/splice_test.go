package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/message"
)

// spliceMatches reports whether the delivery frame AppendDeliver builds
// from a decoded publish frame's NotifBody is byte for byte the frame
// AppendEncode builds for the same delivery.
func spliceMatches(t *testing.T, publish []byte, d Deliver) {
	t.Helper()
	m, err := Decode(publish)
	if err != nil {
		t.Fatal(err)
	}
	body := m.NotifBody()
	if body == nil {
		t.Fatal("canonical publish frame decoded without its frame")
	}
	d.Item.Notif = *m.Notif
	want, err := AppendEncode(nil, NewDeliver(d))
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendDeliver(nil, &d, body); !bytes.Equal(got, want) {
		t.Fatalf("spliced delivery\n%x\nre-encoded delivery\n%x", got, want)
	}
	if got := AppendDeliver(nil, &d, nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendDeliver without a body\n%x\nAppendEncode\n%x", got, want)
	}
}

// randCanonical draws a notification of up to 12 attributes over every
// value kind, float edge cases included.
func randCanonical(rng *rand.Rand) message.Notification {
	attrs := make([]message.Attr, rng.Intn(13))
	for i := range attrs {
		var v message.Value
		switch rng.Intn(5) {
		case 0:
			v = message.String(strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(300)))
		case 1:
			v = message.Int(rng.Int63() - rng.Int63())
		case 2:
			v = message.Float(math.Float64frombits(rng.Uint64()))
		case 3:
			v = message.Bool(rng.Intn(2) == 0)
		default:
			v = goldenValues[rng.Intn(len(goldenValues))]
		}
		attrs[i] = message.Attr{Name: strings.Repeat("n", 1+rng.Intn(3)) + string(rune('a'+rng.Intn(26))), Value: v}
	}
	return message.NewAttrs(attrs...)
}

// TestSpliceIdentityProperty: for random canonical notifications and
// random delivery headers, splicing the publish frame's notification
// bytes into a delivery gives exactly the bytes of encoding it.
func TestSpliceIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 2000; i++ {
		frame, err := Encode(NewPublish(randCanonical(rng)))
		if err != nil {
			t.Fatal(err)
		}
		spliceMatches(t, frame, Deliver{
			Client:   ClientID(strings.Repeat("c", rng.Intn(200))),
			ID:       SubID(strings.Repeat("s", rng.Intn(4))),
			Item:     SeqNotification{Seq: rng.Uint64() >> uint(rng.Intn(64))},
			Replayed: rng.Intn(2) == 0,
		})
	}
}

// TestSpliceIdentityGolden: the same identity over every publish frame
// of the golden corpus.
func TestSpliceIdentityGolden(t *testing.T) {
	publishes := 0
	for name, frame := range readGolden(t) {
		if !strings.HasPrefix(name, "publish_") {
			continue
		}
		publishes++
		spliceMatches(t, frame, Deliver{Client: "C", ID: "s1", Item: SeqNotification{Seq: 1 << 40}})
		spliceMatches(t, frame, Deliver{Client: "alice", ID: "q", Item: SeqNotification{Seq: 7}, Replayed: true})
	}
	if publishes == 0 {
		t.Fatal("the golden corpus holds no publish frame")
	}
}

// TestNotifBodyOnlyForPublishFrames: a message without a frame, or one
// that is not a publish, has no notification body to splice.
func TestNotifBodyOnlyForPublishFrames(t *testing.T) {
	pub := NewPublish(sampleNotif())
	if pub.NotifBody() != nil {
		t.Error("a publish without a frame reports a body")
	}
	frame, err := Encode(NewDeliver(Deliver{Client: "c", ID: "s", Item: SeqNotification{Seq: 1, Notif: sampleNotif()}}))
	if err != nil {
		t.Fatal(err)
	}
	if m := (Message{Type: TypeDeliver, Frame: frame}); m.NotifBody() != nil {
		t.Error("a deliver frame reports a publish body")
	}
}
