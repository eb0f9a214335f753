include module type of struct include Netsim.Udp end
