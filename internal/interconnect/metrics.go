package interconnect

import "hawq/internal/obs"

// Process-wide interconnect counters (obs registry, SHOW metrics).
// Resolved once at init so the packet hot paths pay a single atomic add
// per event, never a registry lookup. Sent/dropped are counted at the
// transmit point (a dropped packet is one loss-injection casualty, not
// also a send); received counts only packets that decoded cleanly.
var (
	udpPacketsSent    = obs.GetCounter("interconnect.udp_packets_sent")
	udpBytesSent      = obs.GetCounter("interconnect.udp_bytes_sent")
	udpPacketsRecv    = obs.GetCounter("interconnect.udp_packets_recv")
	udpBytesRecv      = obs.GetCounter("interconnect.udp_bytes_recv")
	udpPacketsDropped = obs.GetCounter("interconnect.udp_packets_dropped")
	udpRetransmits    = obs.GetCounter("interconnect.udp_retransmits")
	tcpMsgsSent       = obs.GetCounter("interconnect.tcp_msgs_sent")
	tcpBytesSent      = obs.GetCounter("interconnect.tcp_bytes_sent")
	tcpMsgsRecv       = obs.GetCounter("interconnect.tcp_msgs_recv")
	tcpBytesRecv      = obs.GetCounter("interconnect.tcp_bytes_recv")
)
