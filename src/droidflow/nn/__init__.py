"""The hybrid classifier: model.py (weights, forward pass, model files), train.py and tape.py."""
