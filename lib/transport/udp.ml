include Netsim.Udp
