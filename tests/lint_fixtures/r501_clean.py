"""R501 clean twin: the one delivery path, one envelope at a time."""


class Router:
    def route_each(self, envelopes):
        for envelope in envelopes:
            self.route(envelope)

    def reset(self):
        self._pending = []
