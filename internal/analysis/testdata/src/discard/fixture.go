// Fixture for the discarded-error check: calls into the control-plane
// packages (internal/proto here) must not drop their errors.
package discard

import "autoresched/internal/proto"

func blanked(c *proto.Conn, m *proto.Message) {
	_ = c.Send(m) // want `\[discardederr\] error returned by \(proto\.Conn\)\.Send is assigned to _`
}

func bare(data []byte) {
	proto.Decode(data) // want `\[discardederr\] error returned by proto\.Decode is dropped by a bare call`
}

func multi(c *proto.Client, m *proto.Message) *proto.Message {
	resp, _ := c.Call(m) // want `\[discardederr\] error returned by \(proto\.Client\)\.Call is assigned to _`
	return resp
}

// handled propagates the error: compliant.
func handled(c *proto.Conn, m *proto.Message) error {
	return c.Send(m)
}

// checked consumes the error: compliant.
func checked(data []byte) *proto.Message {
	m, err := proto.Decode(data)
	if err != nil {
		return nil
	}
	return m
}

// deferred teardown is exempt: defer c.Close() has no useful error path.
func deferred(c *proto.Client) {
	defer c.Close()
}
