"""Shared fixtures."""
import numpy as np
import pytest


@pytest.fixture
def flip_in_reveal(monkeypatch):
    """A function that, once called, makes the first nonempty frame received
    inside a `reveal` phase arrive with its lowest bit flipped. It returns a
    list that holds True once a frame has been flipped."""
    def arm():
        # imported late: some runs put src on sys.path from a test module
        from secjoin.session import Session
        flipped = []
        send, exchange = Session.send, Session.exchange

        def receive(sess, data):
            if not flipped and data.size and any(
                    "reveal" in path.split(".")
                    for path, *_ in sess.transcript._phase_stack):
                data = data.copy()
                data.flat[0] ^= np.uint64(1)
                flipped.append(True)
            return data

        monkeypatch.setattr(Session, "send", lambda sess, src, data, bits:
                            receive(sess, send(sess, src, data, bits)))
        monkeypatch.setattr(Session, "exchange", lambda sess, d0, d1, b0, b1:
                            tuple(receive(sess, d)
                                  for d in exchange(sess, d0, d1, b0, b1)))
        return flipped
    return arm
