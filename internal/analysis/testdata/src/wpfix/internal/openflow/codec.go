// Package openflow is a wireproto codec fixture. The test swaps the
// handler table to: TypePacketIn→edge, TypeFlowMod→controller, plus a
// stale TypeGhost entry.
package openflow

type MsgType uint8 // want `handler table names TypeGhost but the codec declares no such MsgType constant`

const (
	TypePacketIn MsgType = 2
	TypeFlowMod  MsgType = 3 // want `no entry in msgTypes`
	TypeMystery  MsgType = 4 // want `not assigned to an apply switch`
)

type Message interface{ MsgType() MsgType }

type PacketIn struct{}

func (*PacketIn) MsgType() MsgType { return TypePacketIn }

type FlowMod struct{}

func (*FlowMod) MsgType() MsgType { return TypeFlowMod }

type Mystery struct{}

func (*Mystery) MsgType() MsgType { return TypeMystery }

var msgTypes = [...]struct {
	name string
	new  func() Message
}{
	TypePacketIn: {"PacketIn", func() Message { return &PacketIn{} }},
	TypeMystery:  {"Mystery", func() Message { return &Mystery{} }},
	7:            {"Orphan", func() Message { return &Mystery{} }}, // want `not keyed by a MsgType constant`
}

// New keeps msgTypes referenced.
func New(t MsgType) Message { return msgTypes[t].new() }
